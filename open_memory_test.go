package jem_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro"
	"repro/internal/fault"
)

// savedIndexWorld builds a P-sharded mapper over the shared dataset,
// saves its index, and returns the path and the builder.
func savedIndexWorld(t *testing.T, p int) (idx string, built *jem.Mapper) {
	t.Helper()
	ds, _ := distWorld(t)
	opts := jem.DefaultOptions()
	opts.Shards = p
	m, err := jem.NewMapper(ds.Contigs, opts)
	if err != nil {
		t.Fatal(err)
	}
	idx = filepath.Join(t.TempDir(), "idx.jem")
	if err := m.SaveIndexFile(idx); err != nil {
		t.Fatal(err)
	}
	return idx, m
}

// TestOpenMemoryByteIdentity: each open reports the one residence it
// chose (heap: all resident; mmap and auto: all mapped), at several
// shard counts, and a heap load holds as many bytes as the builder's
// index. That a heap- or mmap-served index maps like the reference —
// TSV bytes and PostingsScanned — is a row of internal/oracle's
// TestBackendMatrix.
func TestOpenMemoryByteIdentity(t *testing.T) {
	for _, p := range []int{1, 2, 8} {
		idx, built := savedIndexWorld(t, p)
		for _, mem := range []jem.Memory{
			{Mode: jem.MemoryHeap},
			{Mode: jem.MemoryMMap},
			{Mode: jem.MemoryAuto},
		} {
			opts := jem.Options{Memory: mem}
			m, info, err := jem.Open(jem.OpenOptions{IndexPath: idx, Options: opts})
			if err != nil {
				t.Fatalf("p=%d %v: %v", p, mem, err)
			}
			if !info.FromIndex {
				t.Fatalf("p=%d %v: not loaded from the index", p, mem)
			}
			resident, mapped := m.IndexMemory()
			switch mem.Mode {
			case jem.MemoryHeap:
				if info.Memory.Mode != jem.MemoryHeap || info.Memory.MappedBytes != 0 {
					t.Fatalf("p=%d heap: info %+v", p, info.Memory)
				}
				// Heap tables are views over heap buffers: they must
				// still count as resident, every byte of them.
				if mapped != 0 || resident != built.IndexBytes() || resident != m.IndexBytes() {
					t.Fatalf("p=%d heap: IndexMemory %d resident / %d mapped, index is %d bytes", p, resident, mapped, built.IndexBytes())
				}
			default: // mmap, and auto on a host with mmap
				if info.Memory.Mode != mem.Mode || info.Memory.MappedBytes <= 0 {
					t.Fatalf("p=%d %v: info %+v", p, mem.Mode, info.Memory)
				}
				if resident != 0 || mapped != m.IndexBytes() {
					t.Fatalf("p=%d %v: IndexMemory %d resident / %d mapped, index is %d bytes", p, mem.Mode, resident, mapped, m.IndexBytes())
				}
			}
			if resident != info.Memory.ResidentBytes || mapped != info.Memory.MappedBytes {
				t.Fatalf("p=%d %v: IndexMemory %d/%d != open-time %d/%d",
					p, mem, resident, mapped, info.Memory.ResidentBytes, info.Memory.MappedBytes)
			}
			if err := m.Close(); err != nil {
				t.Fatalf("p=%d %v: close: %v", p, mem, err)
			}
		}
	}
}

// TestOpenMemoryValidation: the Memory knob is validated like every
// other option — typed ErrInvalidOptions, no clamping.
func TestOpenMemoryValidation(t *testing.T) {
	idx, _ := savedIndexWorld(t, 2)
	bad := []jem.Memory{
		{Mode: jem.MemoryMode(42)},
	}
	for _, mem := range bad {
		_, _, err := jem.Open(jem.OpenOptions{IndexPath: idx, Options: jem.Options{Memory: mem}})
		if !errors.Is(err, jem.ErrInvalidOptions) {
			t.Fatalf("Memory %+v: err %v, want ErrInvalidOptions", mem, err)
		}
	}
	if _, err := jem.ParseMemoryMode("balanced"); err == nil {
		t.Fatal("ParseMemoryMode accepted nonsense")
	}
	for in, want := range map[string]jem.MemoryMode{
		"": jem.MemoryAuto, "auto": jem.MemoryAuto,
		"heap": jem.MemoryHeap, "mmap": jem.MemoryMMap,
	} {
		got, err := jem.ParseMemoryMode(in)
		if err != nil || got != want {
			t.Fatalf("ParseMemoryMode(%q) = %v, %v", in, got, err)
		}
	}
}

// TestOpenMemoryInfoOnBuildAndRebuild: paths that never touch a
// mappable file — a fresh build, and the rebuild fallback after index
// corruption — report a heap-resident index even when the caller
// requested mmap, and the rebuild still answers correctly.
func TestOpenMemoryInfoOnBuildAndRebuild(t *testing.T) {
	ds, reads := distWorld(t)
	opts := jem.DefaultOptions()
	opts.Shards = 2
	opts.Memory = jem.Memory{Mode: jem.MemoryMMap}

	m1, info, err := jem.Open(jem.OpenOptions{Contigs: ds.Contigs, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	if info.Memory.Mode != jem.MemoryHeap || info.Memory.MappedBytes != 0 {
		t.Fatalf("build reported %+v, want heap", info.Memory)
	}
	idx := filepath.Join(t.TempDir(), "idx.jem")
	if err := m1.SaveIndexFile(idx); err != nil {
		t.Fatal(err)
	}
	var wantTSV bytes.Buffer
	if _, err := m1.Stream(context.Background(), bytes.NewReader(reads), &wantTSV, jem.StreamOptions{}); err != nil {
		t.Fatal(err)
	}

	if err := fault.FlipFileByte(idx); err != nil {
		t.Fatal(err)
	}
	m2, info, err := jem.Open(jem.OpenOptions{
		Contigs:          ds.Contigs,
		IndexPath:        idx,
		RebuildOnCorrupt: true,
		Options:          opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Rebuilt || !errors.Is(info.IndexErr, jem.ErrIndexChecksum) {
		t.Fatalf("corrupt mmap-requested open: info %+v", info)
	}
	if info.Memory.Mode != jem.MemoryHeap || info.Memory.MappedBytes != 0 {
		t.Fatalf("rebuild reported %+v, want heap", info.Memory)
	}
	var tsv bytes.Buffer
	if _, err := m2.Stream(context.Background(), bytes.NewReader(reads), &tsv, jem.StreamOptions{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tsv.Bytes(), wantTSV.Bytes()) {
		t.Fatal("rebuilt mapper output differs from the original build")
	}
}

// TestSharedMappingTwoProcesses: two independent jem-mapper processes
// serving the same index with -memory mmap share its read-only pages
// and both produce output byte-identical to an in-process heap load —
// the cross-process contract of the out-of-core format.
func TestSharedMappingTwoProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the jem-mapper binary")
	}
	dir := t.TempDir()
	bin := buildMapperBinary(t, dir)
	contigPath, readPath := writeTinyDataset(t, dir, 8)

	idx := filepath.Join(dir, "tiny.idx")
	base := filepath.Join(dir, "base.tsv")
	if out, err := exec.Command(bin, "-save-index", idx, "-o", base, contigPath, readPath).CombinedOutput(); err != nil {
		t.Fatalf("index build run: %v\n%s", err, out)
	}
	want, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}

	outs := []string{filepath.Join(dir, "a.tsv"), filepath.Join(dir, "b.tsv")}
	cmds := make([]*exec.Cmd, len(outs))
	for i, o := range outs {
		cmds[i] = exec.Command(bin, "-load-index", idx, "-memory", "mmap", "-o", o, contigPath, readPath)
		buf := &bytes.Buffer{}
		cmds[i].Stderr = buf
		if err := cmds[i].Start(); err != nil {
			t.Fatal(err)
		}
	}
	for i, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			t.Fatalf("process %d: %v\n%s", i, err, cmd.Stderr)
		}
	}
	for i, o := range outs {
		got, err := os.ReadFile(o)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("process %d output differs from the heap run (%d vs %d bytes)", i, len(got), len(want))
		}
	}
}
