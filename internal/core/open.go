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
	// MemoryAuto is the default: it serves like MemoryMMap on a host
	// with mmap and like MemoryHeap elsewhere.
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

// MemorySpec is the memory contract an index open honors.
type MemorySpec struct {
	Mode MemoryMode
}

// MemoryInfo reports what an index open actually did: the split of
// IndexBytes into resident (private heap) and mapped (file-backed,
// shareable) bytes. Every shard of one open shares one residence, so
// Mapped > 0 says the open served from the mapping.
type MemoryInfo struct {
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
// the heap. Either way every shard is CRC-verified before the open
// returns. The returned closer, when non-nil, owns the mapping and
// must be closed after the mapper is done serving; sp, when non-nil,
// gets one child span per shard.
func OpenIndexFileObserved(path string, spec MemorySpec, sp *obs.Span) (*Mapper, MemoryInfo, io.Closer, error) {
	ld, mapping, err := openIndexFile(path, nil, spec, sp)
	if err != nil {
		return nil, MemoryInfo{}, nil, err
	}
	m, info, err := ld.mapper()
	if err != nil {
		// The shards do not assemble: nothing will serve the mapping.
		if mapping != nil {
			_ = mapping.Close()
		}
		return nil, MemoryInfo{}, nil, fmt.Errorf("core: index %s: %w", path, err)
	}
	return m, info, mapping, nil
}

// openIndexFile runs the loader over the file at path: over a
// read-only mapping of it when spec asks for one and the host can
// provide it (the returned closer then owns the mapping), over the
// file read at the kept payloads' offsets otherwise.
func openIndexFile(path string, keep func(shard int) bool, spec MemorySpec, sp *obs.Span) (*loadedIndex, io.Closer, error) {
	f, size, err := openFile(path)
	if err != nil {
		return nil, nil, err
	}
	// A mapping outlives the descriptor.
	defer func() { _ = f.Close() }()
	if spec.Mode != MemoryHeap && mmapSupported {
		// A failed mapping falls through to the heap load.
		if data, merr := mmapFile(f, size); merr == nil {
			ld, err := loadIndex(nil, 0, data, keep, sp)
			if err != nil {
				_ = munmapFile(data)
				return nil, nil, fmt.Errorf("core: index %s: %w", path, err)
			}
			return ld, &mappingCloser{data: data}, nil
		}
	}
	ld, err := loadIndex(f, size, nil, keep, sp)
	if err != nil {
		return nil, nil, fmt.Errorf("core: index %s: %w", path, err)
	}
	return ld, nil, nil
}

// openFile opens the index file at path and returns its size, which
// bounds everything a load of it reads or allocates.
func openFile(path string) (*os.File, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, 0, fmt.Errorf("core: index %s: %w", path, err)
	}
	return f, st.Size(), nil
}

// ReadShardSubsetFile loads only the shards selected by keep onto the
// heap — the shard-server loading path, where each process pays memory
// for its own shards only. Unselected payloads are never read;
// selected ones are CRC-verified in parallel exactly like
// a full load. The returned map is keyed by shard id.
func ReadShardSubsetFile(path string, keep func(shard int) bool) (map[int]*sketch.FrozenTable, IndexMeta, error) {
	tables, meta, _, err := OpenShardSubset(path, keep, MemorySpec{Mode: MemoryHeap})
	return tables, meta, err
}

// OpenShardSubset is ReadShardSubsetFile honoring a memory mode: with
// Mode != MemoryHeap (and a host with mmap) the kept shards are served
// as zero-copy views over a shared read-only mapping — the jem-shardd
// fleet path, where every server mapping the same index file shares
// physical pages. Views are CRC-verified at open. The returned closer,
// when non-nil, owns the mapping.
func OpenShardSubset(path string, keep func(shard int) bool, spec MemorySpec) (map[int]*sketch.FrozenTable, IndexMeta, io.Closer, error) {
	ld, mapping, err := openIndexFile(path, keep, spec, nil)
	if err != nil {
		return nil, IndexMeta{}, nil, err
	}
	tables := make(map[int]*sketch.FrozenTable)
	for i, ft := range ld.tables {
		if ft != nil {
			tables[i] = ft
		}
	}
	return tables, ld.man.meta(), mapping, nil
}
