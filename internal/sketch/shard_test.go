package sketch

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/kmer"
)

// shardTestSketches draws deterministic pseudo-random positional
// sketches with postings across every trial.
func shardTestSketches(trials, subjects, wordsPerSubject int) []subjectSketch {
	rng := rand.New(rand.NewSource(11))
	out := make([]subjectSketch, subjects)
	for subj := range out {
		words := make([][]Word, trials)
		anchors := make([][]int32, trials)
		for ti := 0; ti < trials; ti++ {
			for j := 0; j < wordsPerSubject; j++ {
				words[ti] = append(words[ti], Word(rng.Uint64()>>8))
				anchors[ti] = append(anchors[ti], int32(rng.Intn(1<<20)))
			}
		}
		out[subj] = subjectSketch{words: words, anchors: anchors}
	}
	return out
}

func TestShardOfRangeAndDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		ti := rng.Intn(64)
		w := kmer.Word(rng.Uint64())
		for _, p := range []int{1, 2, 3, 8, 17, MaxShards} {
			sd := ShardOf(ti, w, p)
			if sd < 0 || sd >= p {
				t.Fatalf("ShardOf(%d, %d, %d) = %d out of range", ti, w, p, sd)
			}
			if again := ShardOf(ti, w, p); again != sd {
				t.Fatalf("ShardOf not deterministic: %d then %d", sd, again)
			}
		}
		if ShardOf(ti, w, 1) != 0 || ShardOf(ti, w, 0) != 0 {
			t.Fatalf("shards <= 1 must route to shard 0")
		}
	}
}

// TestShardOfTrialSalting checks that the router actually uses the
// trial: the same word must not land on one shard for every trial, or
// per-trial bins would skew onto the same shards.
func TestShardOfTrialSalting(t *testing.T) {
	w := kmer.Word(0x1234_5678_9abc)
	seen := map[int]bool{}
	for ti := 0; ti < 64; ti++ {
		seen[ShardOf(ti, w, 8)] = true
	}
	if len(seen) < 2 {
		t.Fatalf("64 trials of one word all routed to a single shard of 8")
	}
}

// TestShardOfSpread sanity-checks routing balance: over many random
// words every shard should receive a reasonable share.
func TestShardOfSpread(t *testing.T) {
	const n, p = 64_000, 8
	rng := rand.New(rand.NewSource(9))
	counts := make([]int, p)
	for i := 0; i < n; i++ {
		counts[ShardOf(i%32, kmer.Word(rng.Uint64()), p)]++
	}
	want := n / p
	for sd, c := range counts {
		if c < want/2 || c > want*2 {
			t.Fatalf("shard %d got %d of %d postings (want ~%d)", sd, c, n, want)
		}
	}
}

func TestFreezeShardedMatchesFreeze(t *testing.T) {
	sketches := shardTestSketches(6, 10, 40)
	ref := referenceOf(6, sketches)
	ft := freezeSketches(t, 6, sketches, 1, 1, 0).Shard(0)
	for _, p := range []int{1, 2, 3, 8} {
		sf := freezeSketches(t, 6, sketches, 2, p, 0)
		if sf.NumShards() != p {
			t.Fatalf("NumShards = %d, want %d", sf.NumShards(), p)
		}
		if sf.Shard(0).T() != ft.T() {
			t.Fatalf("T = %d, want %d", sf.Shard(0).T(), ft.T())
		}
		if sf.Entries() != ft.Entries() {
			t.Fatalf("p=%d: Entries = %d, want %d", p, sf.Entries(), ft.Entries())
		}
		// Every key the one-shard table answers must answer identically
		// through the sharded router, and live in exactly one shard.
		for ti, bin := range ref.trials {
			for w := range bin {
				want := ft.Lookup(ti, w)
				got := sf.Lookup(ti, w)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("p=%d trial %d word %d: sharded lookup diverges", p, ti, w)
				}
				owners := 0
				for sd := 0; sd < p; sd++ {
					if sf.Shard(sd).Lookup(ti, w) != nil {
						owners++
					}
				}
				if owners != 1 {
					t.Fatalf("p=%d trial %d word %d: posting list in %d shards, want exactly 1", p, ti, w, owners)
				}
			}
		}
	}
}

// TestFreezeShardedSingleShardBitIdentical pins the claim the index
// goldens rely on: the bytes of a shard depend on the records routed to
// it and on nothing else — not on how many appenders held them.
func TestFreezeShardedSingleShardBitIdentical(t *testing.T) {
	sketches := shardTestSketches(5, 8, 30)
	mono := freezeSketches(t, 5, sketches, 1, 1, 0).Shard(0).Payload()
	single := freezeSketches(t, 5, sketches, 3, 1, 0).Shard(0).Payload()
	if !bytes.Equal(mono, single) {
		t.Fatalf("1-shard freeze of three appenders is not bit-identical to that of one")
	}
}

func TestFreezeShardedWorkersIrrelevant(t *testing.T) {
	sketches := shardTestSketches(4, 6, 25)
	a := freezeSketches(t, 4, sketches, 1, 3, 1)
	b := freezeSketches(t, 4, sketches, 1, 3, 4)
	for sd := 0; sd < 3; sd++ {
		if !bytes.Equal(a.Shard(sd).Payload(), b.Shard(sd).Payload()) {
			t.Fatalf("shard %d differs between 1-worker and 4-worker builds", sd)
		}
	}
}

func TestFreezeShardedTraceHookRunsPerShard(t *testing.T) {
	b := NewBuilder(4)
	a := b.Appender()
	for subj, s := range shardTestSketches(4, 6, 25) {
		a.Append(int32(subj), s.words, s.anchors)
	}
	seen := make([]bool, 5)
	if _, err := b.Freeze(5, 1, func(shard int, fn func()) {
		seen[shard] = true
		fn()
	}); err != nil {
		t.Fatal(err)
	}
	for sd, ok := range seen {
		if !ok {
			t.Fatalf("trace hook never ran for shard %d", sd)
		}
	}
}

func TestFreezeShardedClampsShardCount(t *testing.T) {
	sketches := shardTestSketches(2, 2, 5)
	if got := freezeSketches(t, 2, sketches, 1, -3, 0).NumShards(); got != 1 {
		t.Fatalf("shards=-3 built %d shards, want 1", got)
	}
	if got := freezeSketches(t, 2, sketches, 1, MaxShards+5, 0).NumShards(); got != MaxShards {
		t.Fatalf("shards over limit built %d shards, want %d", got, MaxShards)
	}
}

func TestNewShardedFrozenValidates(t *testing.T) {
	sf := freezeSketches(t, 3, shardTestSketches(3, 4, 10), 1, 2, 0)
	if _, err := NewShardedFrozen(nil); err == nil {
		t.Error("empty shard list accepted")
	}
	if _, err := NewShardedFrozen([]*FrozenTable{sf.Shard(0), nil}); err == nil {
		t.Error("nil shard accepted")
	}
	other := freezeSketches(t, 5, shardTestSketches(5, 4, 10), 1, 1, 0).Shard(0)
	if _, err := NewShardedFrozen([]*FrozenTable{sf.Shard(0), other}); err == nil {
		t.Error("trial-count mismatch accepted")
	}
	if got, err := NewShardedFrozen([]*FrozenTable{sf.Shard(0), sf.Shard(1)}); err != nil || got.NumShards() != 2 {
		t.Errorf("valid shard list rejected: %v", err)
	}
}
