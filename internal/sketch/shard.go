package sketch

import (
	"fmt"

	"repro/internal/kmer"
)

// MaxShards bounds the shard count of a sharded sketch index. The
// bound exists for the same reason the other decode limits do: a shard
// count deserialized from an untrusted index file must not drive
// unbounded allocation. It is far above any useful partitioning (the
// paper's largest runs use 64 ranks).
const MaxShards = 1024

// ShardOf is the deterministic shard router: it maps a ⟨trial, word⟩
// lookup key to the shard that owns its posting list. The routing is a
// pure function of the key and the shard count — no registry, no
// rendezvous state — so a query side and an index built anywhere agree
// on placement as long as they agree on P. The hash is a splitmix64
// finalizer over the word XOR a trial-salted odd constant, giving a
// near-uniform spread even though sketch words share long prefixes.
//
//jem:hotpath
func ShardOf(t int, w kmer.Word, shards int) int {
	if shards <= 1 {
		return 0
	}
	x := uint64(w) ^ (uint64(t)+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(shards))
}

// ShardedFrozen is the sealed sketch table: P ≥ 1 independent
// FrozenTables, each owning the ⟨trial, word⟩ keys that ShardOf routes
// to it. Every posting list lives in exactly one shard, so every P
// answers Lookup identically; what sharding buys is parallelism
// (shards lay out, save and load independently) and bounded per-shard
// memory.
type ShardedFrozen struct {
	shards []*FrozenTable
}

// NewShardedFrozen assembles a sharded table from per-shard tables
// (the builder's and the index loader's last step). Every shard must
// carry the same trial count.
func NewShardedFrozen(shards []*FrozenTable) (*ShardedFrozen, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("sketch: sharded table needs at least one shard")
	}
	if len(shards) > MaxShards {
		return nil, fmt.Errorf("sketch: %d shards exceeds limit %d", len(shards), MaxShards)
	}
	t := shards[0].T()
	for i, ft := range shards {
		if ft == nil {
			return nil, fmt.Errorf("sketch: shard %d is nil", i)
		}
		if ft.T() != t {
			return nil, fmt.Errorf("sketch: shard %d has %d trials, shard 0 has %d", i, ft.T(), t)
		}
	}
	return &ShardedFrozen{shards: shards}, nil
}

// NumShards returns the shard count P.
func (sf *ShardedFrozen) NumShards() int { return len(sf.shards) }

// Entries returns the total posting count across all shards.
func (sf *ShardedFrozen) Entries() int {
	n := 0
	for _, ft := range sf.shards {
		n += ft.Entries()
	}
	return n
}

// ResidentBytes returns the private heap portion of the table: decoded
// shards count fully, mapped views count 0.
func (sf *ShardedFrozen) ResidentBytes() int64 {
	var n int64
	for _, ft := range sf.shards {
		n += ft.ResidentBytes()
	}
	return n
}

// MappedBytes returns the mmap-aliasing portion of the table: each
// mapped view's arrays.
func (sf *ShardedFrozen) MappedBytes() int64 {
	var n int64
	for _, ft := range sf.shards {
		n += ft.MappedBytes()
	}
	return n
}

// Shard returns shard i's frozen table.
func (sf *ShardedFrozen) Shard(i int) *FrozenTable { return sf.shards[i] }

// Lookup routes ⟨t, w⟩ to its shard and returns the posting list (nil
// when absent). The returned slice must not be modified.
//
//jem:hotpath
func (sf *ShardedFrozen) Lookup(t int, w kmer.Word) []Posting {
	return sf.shards[ShardOf(t, w, len(sf.shards))].Lookup(t, w)
}
