package sketch

import (
	"fmt"
	"sync"
	"sync/atomic"

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
	// lazy, when non-nil, is parallel to shards: position i holds either
	// a materialized table in shards[i] (lazy[i] nil) or a load-on-demand
	// slot in lazy[i] (shards[i] nil) that faults the shard in — CRC
	// verification included — on its first query. Built by
	// NewLazyShardedFrozen for the memory-budgeted index open.
	lazy []*LazyShard
	// trials caches T so a lazy table answers T() without faulting a
	// shard in; 0 means "ask shard 0" (the fully materialized case).
	trials int
}

// LazyShard is one load-on-demand shard slot: the loader runs exactly
// once, on the shard's first query, and its outcome — table or error —
// is sticky for the table's lifetime. bytes and entries carry the
// accounting the slot reports before materialization (the mapped
// payload size and the directory's posting count).
type LazyShard struct {
	load    func() (*FrozenTable, error)
	bytes   int64
	entries int

	once sync.Once
	done atomic.Bool
	ft   *FrozenTable
	err  error
}

// NewLazyShard builds a load-on-demand slot. load must be safe to call
// from any goroutine (it runs under the slot's once) and should verify
// the payload's checksum before building the table.
func NewLazyShard(bytes int64, entries int, load func() (*FrozenTable, error)) *LazyShard {
	return &LazyShard{load: load, bytes: bytes, entries: entries}
}

// materialize runs the loader once and returns the sticky outcome.
func (ls *LazyShard) materialize() (*FrozenTable, error) {
	ls.once.Do(func() {
		ls.ft, ls.err = ls.load()
		ls.done.Store(true)
	})
	return ls.ft, ls.err
}

// snapshot returns the slot's table when already materialized (nil
// otherwise) without triggering a fault-in — the accounting read.
func (ls *LazyShard) snapshot() (*FrozenTable, bool) {
	if !ls.done.Load() {
		return nil, false
	}
	return ls.ft, true
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
	return &ShardedFrozen{shards: shards, trials: t}, nil
}

// NewLazyShardedFrozen assembles a sharded table in which each
// position holds either an eagerly materialized table (eager[i]) or a
// load-on-demand slot (lazy[i]) — exactly one of the two. trials is
// the trial count every shard must carry (taken from the index
// manifest, since lazy shards cannot be asked before fault-in).
func NewLazyShardedFrozen(trials int, eager []*FrozenTable, lazy []*LazyShard) (*ShardedFrozen, error) {
	if len(eager) != len(lazy) {
		return nil, fmt.Errorf("sketch: eager/lazy shard slices disagree: %d vs %d", len(eager), len(lazy))
	}
	if len(eager) == 0 {
		return nil, fmt.Errorf("sketch: sharded table needs at least one shard")
	}
	if len(eager) > MaxShards {
		return nil, fmt.Errorf("sketch: %d shards exceeds limit %d", len(eager), MaxShards)
	}
	if trials <= 0 {
		return nil, fmt.Errorf("sketch: lazy sharded table needs a positive trial count, got %d", trials)
	}
	anyLazy := false
	for i := range eager {
		switch {
		case eager[i] != nil && lazy[i] != nil:
			return nil, fmt.Errorf("sketch: shard %d is both eager and lazy", i)
		case eager[i] == nil && lazy[i] == nil:
			return nil, fmt.Errorf("sketch: shard %d is neither eager nor lazy", i)
		case eager[i] != nil && eager[i].T() != trials:
			return nil, fmt.Errorf("sketch: shard %d has %d trials, manifest says %d", i, eager[i].T(), trials)
		case lazy[i] != nil:
			anyLazy = true
		}
	}
	if !anyLazy {
		return NewShardedFrozen(eager)
	}
	return &ShardedFrozen{shards: eager, lazy: lazy, trials: trials}, nil
}

// NumShards returns the shard count P.
func (sf *ShardedFrozen) NumShards() int { return len(sf.shards) }

// Entries returns the total posting count across all shards. Lazy
// shards report their directory's count without faulting in.
func (sf *ShardedFrozen) Entries() int {
	n := 0
	for i, ft := range sf.shards {
		if ft != nil {
			n += ft.Entries()
			continue
		}
		if sf.lazy != nil && sf.lazy[i] != nil {
			n += sf.lazy[i].entries
		}
	}
	return n
}

// ResidentBytes returns the private heap portion of the table: decoded
// shards count fully, mapped views and unfaulted lazy shards count 0.
func (sf *ShardedFrozen) ResidentBytes() int64 {
	var n int64
	for i, ft := range sf.shards {
		if ft != nil {
			n += ft.ResidentBytes()
			continue
		}
		if sf.lazy == nil || sf.lazy[i] == nil {
			continue
		}
		if mt, ok := sf.lazy[i].snapshot(); ok && mt != nil {
			n += mt.ResidentBytes()
		}
	}
	return n
}

// MappedBytes returns the mmap-aliasing portion of the table: each
// mapped view's arrays, plus the full payload size of every lazy slot
// (materialized or not — the mapping exists either way).
func (sf *ShardedFrozen) MappedBytes() int64 {
	var n int64
	for i, ft := range sf.shards {
		if ft != nil {
			n += ft.MappedBytes()
			continue
		}
		if sf.lazy != nil && sf.lazy[i] != nil {
			n += sf.lazy[i].bytes
		}
	}
	return n
}

// Shard returns shard i's frozen table. On a lazy table it forces the
// shard's fault-in and returns nil when that fails; error-aware
// callers (the query path, serialization) use ShardChecked.
func (sf *ShardedFrozen) Shard(i int) *FrozenTable {
	ft, _ := sf.ShardChecked(i)
	return ft
}

// ShardChecked returns shard i's frozen table, materializing a lazy
// shard on first use. A fault-in failure (checksum mismatch, corrupt
// payload) is sticky: every subsequent call for that shard returns the
// same error.
func (sf *ShardedFrozen) ShardChecked(i int) (*FrozenTable, error) {
	if sf.lazy != nil {
		if ls := sf.lazy[i]; ls != nil {
			return ls.materialize()
		}
	}
	return sf.shards[i], nil
}

// Lookup routes ⟨t, w⟩ to its shard and returns the posting list (nil
// when absent). The returned slice must not be modified. This
// single-probe convenience treats a shard whose fault-in failed as
// absent; queries go through ShardChecked per touched shard, which is
// where such a failure is surfaced.
//
//jem:hotpath
func (sf *ShardedFrozen) Lookup(t int, w kmer.Word) []Posting {
	ft, err := sf.ShardChecked(ShardOf(t, w, len(sf.shards)))
	if err != nil || ft == nil {
		return nil
	}
	return ft.Lookup(t, w)
}
