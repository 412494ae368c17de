package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/seq"
)

// buildPair builds two mappers over the same contigs: one sealed
// monolithically, one sealed into p shards.
func buildPair(t *testing.T, contigs []seq.Record, p int) (mono, sharded *Mapper) {
	t.Helper()
	mono, err := NewMapper(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	mono.AddSubjectsParallel(contigs, 1)
	mono.Seal()
	sharded, err = NewMapper(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	sharded.AddSubjectsParallel(contigs, 1)
	sharded.SealSharded(p, 0)
	if got := sharded.Shards(); got != p {
		t.Fatalf("Shards() = %d, want %d", got, p)
	}
	return mono, sharded
}

// TestShardedMappingEquivalence is the tentpole property: for several
// seeds and shard counts, every mapping primitive (plain, positional,
// top-k) returns identical results from the sharded and monolithic
// backends.
func TestShardedMappingEquivalence(t *testing.T) {
	for _, seed := range []int64{5, 17, 99} {
		rng := rand.New(rand.NewSource(seed))
		_, contigs, reads, _ := makeWorld(t, rng, 20_000, 1000, 20)
		for _, p := range []int{1, 2, 3, 8} {
			mono, sharded := buildPair(t, contigs, p)
			wantRes, _ := mono.MapReads(context.Background(), reads, smallParams().L, 2)
			gotRes, _ := sharded.MapReads(context.Background(), reads, smallParams().L, 2)
			if !reflect.DeepEqual(gotRes, wantRes) {
				t.Fatalf("seed %d p=%d: MapReads diverges", seed, p)
			}
			ms, ss := mono.NewSession(), sharded.NewSession()
			for _, rd := range reads {
				seg := rd.Seq[:smallParams().L]
				wantPH, wantOK := ms.MapSegmentPositional(seg)
				gotPH, gotOK := ss.MapSegmentPositional(seg)
				if wantOK != gotOK || !reflect.DeepEqual(gotPH, wantPH) {
					t.Fatalf("seed %d p=%d: MapSegmentPositional diverges: %+v vs %+v", seed, p, gotPH, wantPH)
				}
				wantTop := ms.MapSegmentTopK(seg, 4)
				gotTop := ss.MapSegmentTopK(seg, 4)
				if !reflect.DeepEqual(gotTop, wantTop) {
					t.Fatalf("seed %d p=%d: MapSegmentTopK diverges: %v vs %v", seed, p, gotTop, wantTop)
				}
			}
			if ms.PostingsScanned() != ss.PostingsScanned() {
				t.Fatalf("seed %d p=%d: postings scanned differ: %d vs %d — sharding changed the work done",
					seed, p, ms.PostingsScanned(), ss.PostingsScanned())
			}
		}
	}
}

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
