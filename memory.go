package jem

import (
	"fmt"

	"repro/internal/core"
)

// MemoryMode selects how an index open turns file bytes into serving
// structures — the out-of-core knob for indexes larger than the memory
// a process wants to spend on them.
type MemoryMode uint8

const (
	// MemoryAuto serves the index from a read-only file mapping and,
	// when Memory.Budget is positive, copies shards onto the heap until
	// the budget is spent — remaining shards stay load-on-demand
	// (verified on their first query). With no budget it behaves like
	// MemoryMMap. Hosts without mmap fall back to a full heap load.
	MemoryAuto MemoryMode = iota
	// MemoryHeap reads the whole index into process-private memory at
	// open — the classic load, largest footprint.
	MemoryHeap
	// MemoryMMap serves every shard as a zero-copy view over a shared
	// read-only mapping: near-zero resident cost, demand paging, and
	// physical pages shared across processes mapping the same file.
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

// ParseMemoryMode converts a CLI flag value ("auto", "heap", "mmap")
// into a MemoryMode.
func ParseMemoryMode(s string) (MemoryMode, error) {
	switch s {
	case "auto", "":
		return MemoryAuto, nil
	case "heap":
		return MemoryHeap, nil
	case "mmap":
		return MemoryMMap, nil
	default:
		return MemoryAuto, fmt.Errorf("jem: unknown memory mode %q (want auto, heap or mmap)", s)
	}
}

// Memory is the memory-budget contract an index open honors (see
// Options.Memory and docs/MEMORY.md).
type Memory struct {
	// Mode picks the serving residency. The zero value (MemoryAuto)
	// serves JEMIDX06 indexes from mmap.
	Mode MemoryMode
	// Budget caps the resident heap bytes MemoryAuto may spend decoding
	// shards; ≤0 means "no heap, map everything". Only meaningful with
	// MemoryAuto.
	Budget int64
}

// spec projects the facade option onto the core contract.
func (mm Memory) spec() core.MemorySpec {
	return core.MemorySpec{Mode: core.MemoryMode(mm.Mode), Budget: mm.Budget}
}

// validate checks the Memory fields alone — the piece of
// Options.Validate the pure index-load path needs (a load takes its
// sketch parameters from the index, not from Options).
func (mm Memory) validate() error {
	switch mm.Mode {
	case MemoryAuto, MemoryHeap, MemoryMMap:
	default:
		return optErr("Memory.Mode", mm.Mode, "is not a known MemoryMode")
	}
	if mm.Budget < 0 {
		return optErr("Memory.Budget", mm.Budget, "must be ≥ 0 (0 means no heap budget)")
	}
	if mm.Budget > 0 && mm.Mode != MemoryAuto {
		return optErr("Memory.Budget", mm.Budget,
			fmt.Sprintf("only applies to MemoryAuto (mode is %s, which ignores a budget)", mm.Mode))
	}
	return nil
}

// ShardMemory records where one shard of an open index lives.
type ShardMemory uint8

const (
	// ShardHeap: decoded into private memory at open.
	ShardHeap ShardMemory = iota
	// ShardMapped: zero-copy view over the file mapping, verified at
	// open.
	ShardMapped
	// ShardLazy: mapped but not yet built; its view is constructed —
	// and CRC-verified — on the shard's first query.
	ShardLazy
)

func (sm ShardMemory) String() string {
	switch sm {
	case ShardHeap:
		return "heap"
	case ShardMapped:
		return "mapped"
	case ShardLazy:
		return "lazy"
	default:
		return fmt.Sprintf("ShardMemory(%d)", uint8(sm))
	}
}

// MemoryInfo reports what an index open actually did with memory: the
// residency of each shard and the resulting split of the index's bytes
// into resident (private heap) and mapped (file-backed, shareable).
// The split is the open-time snapshot; Mapper.IndexMemory reports the
// live values, which grow as lazy shards fault in.
type MemoryInfo struct {
	// Mode is the mode the open ran under (the requested mode, or
	// MemoryHeap when the path taken cannot map — a build from contigs,
	// a host without mmap).
	Mode MemoryMode
	// Shards is the per-shard residency, in shard order. Empty when the
	// mapper has no local shards (remote serving).
	Shards []ShardMemory
	// ResidentBytes and MappedBytes split the index's backing arrays by
	// where they live.
	ResidentBytes int64
	MappedBytes   int64
}

// memInfoFromCore converts the core report, stamping the effective
// mode: a report with no mapped bytes and no lazy shards came off the
// heap path regardless of what was requested.
func memInfoFromCore(requested MemoryMode, ci core.MemoryInfo) MemoryInfo {
	info := MemoryInfo{
		Mode:          requested,
		ResidentBytes: ci.Resident,
		MappedBytes:   ci.Mapped,
	}
	if len(ci.Shards) > 0 {
		info.Shards = make([]ShardMemory, len(ci.Shards))
		mapped := false
		for i, r := range ci.Shards {
			info.Shards[i] = ShardMemory(r)
			if r != core.ResidenceHeap {
				mapped = true
			}
		}
		if !mapped {
			info.Mode = MemoryHeap
		}
	}
	return info
}

// heapMemoryInfo summarizes a mapper that was built (or loaded)
// entirely onto the heap.
func heapMemoryInfo(m *Mapper) MemoryInfo {
	info := MemoryInfo{Mode: MemoryHeap}
	if m.core.Remote() == nil {
		info.Shards = make([]ShardMemory, m.core.Shards())
	}
	info.ResidentBytes, info.MappedBytes = m.core.IndexMemory()
	return info
}

// IndexMemory splits IndexBytes into resident (process-private heap)
// and mapped (file-backed via mmap, shared across processes) bytes —
// the live values, which move as lazy shards of a budgeted open fault
// in. A heap-loaded index is all resident; an mmap-served one is all
// mapped.
func (m *Mapper) IndexMemory() (resident, mapped int64) {
	return m.core.IndexMemory()
}
