package core

import (
	"math/rand"
	"testing"
)

func TestSealShardedStateMachine(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	_, contigs, _, _ := makeWorld(t, rng, 8_000, 1000, 1)
	m, err := NewMapper(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	m.AddSubjectsParallel(contigs, 1)
	m.SealSharded(4, 0)
	if !m.Sealed() || m.Sharded() == nil {
		t.Fatalf("SealSharded left wrong state: sealed=%v sharded=%v", m.Sealed(), m.Sharded())
	}
	m.SealSharded(4, 0) // idempotent
	m.Seal()            // no-op on a sealed mapper
	if m.Shards() != 4 {
		t.Fatalf("Shards() = %d after re-seal, want 4", m.Shards())
	}

	frozen, err := NewMapper(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	frozen.AddSubjectsParallel(contigs, 1)
	frozen.Seal()
	defer func() {
		if recover() == nil {
			t.Fatal("SealSharded on a monolithically sealed mapper did not panic")
		}
	}()
	frozen.SealSharded(2, 0)
}
