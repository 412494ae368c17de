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
	// MemoryAuto is the default: it serves like MemoryMMap on a host
	// with mmap and falls back to a full heap load elsewhere.
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

// Memory is the memory contract an index open honors (see
// Options.Memory and docs/MEMORY.md).
type Memory struct {
	// Mode picks the serving residency. The zero value (MemoryAuto)
	// serves JEMIDX06 indexes from mmap.
	Mode MemoryMode
}

// spec projects the facade option onto the core contract.
func (mm Memory) spec() core.MemorySpec {
	return core.MemorySpec{Mode: core.MemoryMode(mm.Mode)}
}

// validate checks the Memory fields alone — the piece of
// Options.Validate the pure index-load path needs (a load takes its
// sketch parameters from the index, not from Options).
func (mm Memory) validate() error {
	switch mm.Mode {
	case MemoryAuto, MemoryHeap, MemoryMMap:
		return nil
	}
	return optErr("Memory.Mode", mm.Mode, "is not a known MemoryMode")
}

// MemoryInfo reports what an index open actually did with memory: the
// split of the index's bytes into resident (private heap) and mapped
// (file-backed, shareable). Every shard is verified at open and keeps
// its residence for the mapper's lifetime.
type MemoryInfo struct {
	// Mode is the mode the open ran under (the requested mode, or
	// MemoryHeap when the path taken cannot map — a build from contigs,
	// a host without mmap).
	Mode MemoryMode
	// ResidentBytes and MappedBytes split the index's backing arrays by
	// where they live.
	ResidentBytes int64
	MappedBytes   int64
}

// memInfoFromCore converts the core report, stamping the effective
// mode: a report with no mapped bytes came off the heap path
// regardless of what was requested.
func memInfoFromCore(requested MemoryMode, ci core.MemoryInfo) MemoryInfo {
	info := MemoryInfo{
		Mode:          requested,
		ResidentBytes: ci.Resident,
		MappedBytes:   ci.Mapped,
	}
	if ci.Mapped == 0 {
		info.Mode = MemoryHeap
	}
	return info
}

// heapMemoryInfo summarizes a mapper that was built (or loaded)
// entirely onto the heap.
func heapMemoryInfo(m *Mapper) MemoryInfo {
	resident, mapped := m.core.IndexMemory()
	return MemoryInfo{Mode: MemoryHeap, ResidentBytes: resident, MappedBytes: mapped}
}

// IndexMemory splits IndexBytes into resident (process-private heap)
// and mapped (file-backed via mmap, shared across processes) bytes. A
// heap-loaded index is all resident; an mmap-served one is all mapped.
func (m *Mapper) IndexMemory() (resident, mapped int64) {
	return m.core.IndexMemory()
}
