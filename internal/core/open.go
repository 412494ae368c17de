package core

import (
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/obs"
	"repro/internal/sketch"
)

// MemoryMode selects how an index open turns file bytes into serving
// structures.
type MemoryMode uint8

const (
	// MemoryAuto maps the index read-only and, under a positive
	// Budget, copies shards onto the heap until the budget is spent —
	// the rest stay load-on-demand views. With no budget it behaves
	// like MemoryMMap. Hosts without mmap fall back to a heap load.
	MemoryAuto MemoryMode = iota
	// MemoryHeap reads every shard into process-private heap memory at
	// open — the classic load.
	MemoryHeap
	// MemoryMMap serves every shard as a zero-copy view over a shared
	// read-only mapping: near-zero resident cost, kernel-managed
	// faulting, pages shared across processes.
	MemoryMMap
)

func (md MemoryMode) String() string {
	switch md {
	case MemoryAuto:
		return "auto"
	case MemoryHeap:
		return "heap"
	case MemoryMMap:
		return "mmap"
	default:
		return fmt.Sprintf("MemoryMode(%d)", uint8(md))
	}
}

// MemorySpec is the byte-budget contract an index open honors.
type MemorySpec struct {
	Mode MemoryMode
	// Budget caps the resident (heap) bytes MemoryAuto may spend on
	// shard payloads; ≤0 means "no heap, map everything".
	Budget int64
}

// ShardResidence records where one shard's serving structures live.
type ShardResidence uint8

const (
	// ResidenceHeap: payload held in private memory, verified at open.
	ResidenceHeap ShardResidence = iota
	// ResidenceMapped: zero-copy view over the mapping, verified at open.
	ResidenceMapped
	// ResidenceLazy: view built — and CRC-verified — on first query.
	ResidenceLazy
)

func (sr ShardResidence) String() string {
	switch sr {
	case ResidenceHeap:
		return "heap"
	case ResidenceMapped:
		return "mapped"
	case ResidenceLazy:
		return "lazy"
	default:
		return fmt.Sprintf("ShardResidence(%d)", uint8(sr))
	}
}

// MemoryInfo reports what an index open actually did: the residence of
// each shard and the resulting split of IndexBytes into resident
// (private heap) and mapped (file-backed, shareable) bytes.
type MemoryInfo struct {
	Shards   []ShardResidence
	Resident int64
	Mapped   int64
}

// mappingCloser owns an index file mapping; Close releases it. It must
// not be closed while any mapper built over the mapping is still
// serving (the facade ties it to the mapper's lifetime).
type mappingCloser struct {
	data []byte
	once sync.Once
	err  error
}

func (mc *mappingCloser) Close() error {
	mc.once.Do(func() { mc.err = munmapFile(mc.data) })
	return mc.err
}

// OpenIndexFile loads an index from disk honoring a memory spec. See
// OpenIndexFileObserved.
func OpenIndexFile(path string, spec MemorySpec) (*Mapper, MemoryInfo, io.Closer, error) {
	return OpenIndexFileObserved(path, spec, nil)
}

// OpenIndexFileObserved loads the index at path honoring spec: under
// MemoryMMap or MemoryAuto (on a host with mmap) the file is mapped
// read-only and served in place; under MemoryHeap, on platforms
// without mmap, or when the mapping fails, its payloads are read onto
// the heap. The returned closer, when non-nil, owns the mapping and
// must be closed after the mapper is done serving; sp, when non-nil,
// gets one child span per shard.
func OpenIndexFileObserved(path string, spec MemorySpec, sp *obs.Span) (*Mapper, MemoryInfo, io.Closer, error) {
	ld, mapping, err := openIndexFile(path, nil, spec, sp)
	if err != nil {
		return nil, MemoryInfo{}, nil, err
	}
	m, info, err := ld.mapper()
	if err == nil && (mapping == nil || info.Mapped > 0) {
		return m, info, mapping, nil
	}
	// Every shard went to the heap and nothing references the mapping,
	// or the shards do not assemble: release it now.
	if mapping != nil {
		_ = mapping.Close()
	}
	if err != nil {
		return nil, MemoryInfo{}, nil, fmt.Errorf("core: index %s: %w", path, err)
	}
	return m, info, nil, nil
}

// openIndexFile runs the loader over the file at path: over a
// read-only mapping of it when spec asks for one and the host can
// provide it (the returned closer then owns the mapping), over the
// file's bytes read sequentially otherwise.
func openIndexFile(path string, keep func(shard int) bool, spec MemorySpec, sp *obs.Span) (*loadedIndex, io.Closer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	// A mapping outlives the descriptor.
	defer func() { _ = f.Close() }()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, fmt.Errorf("core: index %s: %w", path, err)
	}
	if spec.Mode != MemoryHeap && mmapSupported {
		// A failed mapping falls through to the heap load.
		if data, merr := mmapFile(f, st.Size()); merr == nil {
			ld, err := loadIndex(nil, 0, data, keep, spec, sp)
			if err != nil {
				_ = munmapFile(data)
				return nil, nil, fmt.Errorf("core: index %s: %w", path, err)
			}
			return ld, &mappingCloser{data: data}, nil
		}
	}
	ld, err := loadIndex(f, st.Size(), nil, keep, spec, sp)
	if err != nil {
		return nil, nil, fmt.Errorf("core: index %s: %w", path, err)
	}
	return ld, nil, nil
}

// planResidences decides each shard's residence. Without a mapping
// every shard is read onto the heap. Over a mapping, MemoryMMap — and
// MemoryAuto with no budget — map everything eagerly; MemoryAuto with
// a budget copies shards onto the heap, in shard order, while the
// cumulative payload size fits, and leaves the rest load-on-demand (a
// shard not copied is likely cold; paying its CRC pass only if it is
// ever queried is the out-of-core bargain).
func planResidences(spec MemorySpec, lens []uint64, mapped bool) []ShardResidence {
	res := make([]ShardResidence, len(lens))
	if !mapped {
		return res // ResidenceHeap
	}
	var resident int64
	for i := range res {
		sz := int64(lens[i])
		switch {
		case spec.Mode == MemoryMMap || spec.Budget <= 0:
			res[i] = ResidenceMapped
		case resident+sz <= spec.Budget:
			res[i] = ResidenceHeap
			resident += sz
		default:
			res[i] = ResidenceLazy
		}
	}
	return res
}

// ReadShardSubsetFile loads only the shards selected by keep onto the
// heap — the shard-server loading path, where each process pays memory
// for its own shards only. Unselected payloads are skipped without
// allocation; selected ones are CRC-verified in parallel exactly like
// a full load. The returned map is keyed by shard id.
func ReadShardSubsetFile(path string, keep func(shard int) bool) (map[int]*sketch.FrozenTable, IndexMeta, error) {
	tables, meta, _, err := OpenShardSubset(path, keep, MemorySpec{Mode: MemoryHeap})
	return tables, meta, err
}

// OpenShardSubset is ReadShardSubsetFile honoring a memory mode: with
// Mode != MemoryHeap (and a host with mmap) the kept shards are served
// as zero-copy views over a shared read-only mapping — the jem-shardd
// fleet path, where every server mapping the same index file shares
// physical pages. Views are CRC-verified at open and the budget is
// ignored (a shard server has no lazy path; it will serve every kept
// shard). The returned closer, when non-nil, owns the mapping.
func OpenShardSubset(path string, keep func(shard int) bool, spec MemorySpec) (map[int]*sketch.FrozenTable, IndexMeta, io.Closer, error) {
	ld, mapping, err := openIndexFile(path, keep, MemorySpec{Mode: spec.Mode}, nil)
	if err != nil {
		return nil, IndexMeta{}, nil, err
	}
	tables := make(map[int]*sketch.FrozenTable)
	for i, ft := range ld.eager {
		if ft != nil {
			tables[i] = ft
		}
	}
	return tables, ld.man.meta(), mapping, nil
}
