package jem_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro"
	"repro/internal/fault"
)

// savedIndexWorld builds a P-sharded mapper over the shared dataset,
// saves its index, and returns the path, the builder, its streamed TSV
// and stats as the ground truth, plus the serialized reads.
func savedIndexWorld(t *testing.T, p int) (idx string, built *jem.Mapper, wantTSV []byte, wantStats jem.Stats, reads []byte) {
	t.Helper()
	ds, rd := distWorld(t)
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
	var tsv bytes.Buffer
	stats, err := m.Stream(context.Background(), bytes.NewReader(rd), &tsv, jem.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return idx, m, tsv.Bytes(), stats, rd
}

// TestOpenMemoryByteIdentity is the tentpole property: an index served
// from a read-only mapping — fully mapped, or budgeted with lazy
// shards — is indistinguishable from the heap load and from the mapper
// that built it: identical TSV bytes and identical PostingsScanned, at
// several shard counts.
func TestOpenMemoryByteIdentity(t *testing.T) {
	for _, p := range []int{1, 2, 8} {
		idx, built, wantTSV, wantStats, reads := savedIndexWorld(t, p)
		budget := built.IndexBytes() / 2
		if budget < 1 {
			budget = 1
		}
		for _, mem := range []jem.Memory{
			{Mode: jem.MemoryHeap},
			{Mode: jem.MemoryMMap},
			{Mode: jem.MemoryAuto, Budget: budget},
		} {
			opts := jem.Options{Memory: mem}
			m, info, err := jem.Open(jem.OpenOptions{IndexPath: idx, Options: opts})
			if err != nil {
				t.Fatalf("p=%d %v: %v", p, mem, err)
			}
			if !info.FromIndex {
				t.Fatalf("p=%d %v: not loaded from the index", p, mem)
			}
			if got := len(info.Memory.Shards); got != max(p, 1) {
				t.Fatalf("p=%d %v: %d shard residences", p, mem, got)
			}
			switch mem.Mode {
			case jem.MemoryHeap:
				if info.Memory.Mode != jem.MemoryHeap || info.Memory.MappedBytes != 0 {
					t.Fatalf("p=%d heap: info %+v", p, info.Memory)
				}
				// Heap tables are views over heap buffers: they must
				// still count as resident, every byte of them.
				if r, mp := m.IndexMemory(); mp != 0 || r != built.IndexBytes() || r != m.IndexBytes() {
					t.Fatalf("p=%d heap: IndexMemory %d resident / %d mapped, index is %d bytes", p, r, mp, built.IndexBytes())
				}
			case jem.MemoryMMap:
				if info.Memory.Mode != jem.MemoryMMap || info.Memory.MappedBytes <= 0 {
					t.Fatalf("p=%d mmap: info %+v", p, info.Memory)
				}
			}
			resident, mapped := m.IndexMemory()
			if resident != info.Memory.ResidentBytes || mapped != info.Memory.MappedBytes {
				t.Fatalf("p=%d %v: IndexMemory %d/%d != open-time %d/%d",
					p, mem, resident, mapped, info.Memory.ResidentBytes, info.Memory.MappedBytes)
			}
			var tsv bytes.Buffer
			stats, err := m.Stream(context.Background(), bytes.NewReader(reads), &tsv, jem.StreamOptions{})
			if err != nil {
				t.Fatalf("p=%d %v: stream: %v", p, mem, err)
			}
			if !bytes.Equal(tsv.Bytes(), wantTSV) {
				t.Fatalf("p=%d %v: TSV differs (%d vs %d bytes)", p, mem, tsv.Len(), len(wantTSV))
			}
			if stats.PostingsScanned != wantStats.PostingsScanned {
				t.Fatalf("p=%d %v: postings scanned %d != %d", p, mem, stats.PostingsScanned, wantStats.PostingsScanned)
			}
			if stats.ShardsLost != nil {
				t.Fatalf("p=%d %v: healthy run lost shards %v", p, mem, stats.ShardsLost)
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
	idx, _, _, _, _ := savedIndexWorld(t, 2)
	bad := []jem.Memory{
		{Mode: jem.MemoryHeap, Budget: 1 << 20}, // budget without auto
		{Mode: jem.MemoryMMap, Budget: 1},
		{Budget: -1},
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

// TestStreamSurfacesFaultInFailure: when a budgeted open's lazy shard
// fails its deferred CRC verification mid-stream, the run completes
// degraded in every format — full output shape, lost shards named in
// Stats.ShardsLost — and returns an error wrapping ErrIndexChecksum so
// callers know the answer was not exact.
func TestStreamSurfacesFaultInFailure(t *testing.T) {
	ds, _ := distWorld(t)
	// P = 1 is the case the one-scan path made reachable: the only
	// shard goes lazy, is lost, and the run still completes.
	for _, p := range []int{4, 1} {
		idx, _, _, _, reads := savedIndexWorld(t, p)
		for _, format := range []jem.Format{jem.FormatTSV, jem.FormatPAF, jem.FormatSAM, jem.FormatNDJSON} {
			// A fresh open per format: a lost shard stays lost.
			m, info, err := jem.Open(jem.OpenOptions{
				IndexPath: idx,
				Contigs:   ds.Contigs,
				Options:   jem.Options{Memory: jem.Memory{Mode: jem.MemoryAuto, Budget: 1}},
			})
			if err != nil {
				t.Fatal(err)
			}
			var lazy int
			for _, r := range info.Memory.Shards {
				if r == jem.ShardLazy {
					lazy++
				}
			}
			if lazy == 0 {
				t.Skipf("no lazy shards on this platform (residences %v)", info.Memory.Shards)
			}

			fault.Set(fault.IndexFaultinByteFlip, fault.Spec{})
			var out bytes.Buffer
			stats, err := m.Stream(context.Background(), bytes.NewReader(reads), &out, jem.StreamOptions{Format: format})
			fault.Reset()
			if cerr := m.Close(); cerr != nil {
				t.Fatal(cerr)
			}
			if err == nil {
				t.Fatalf("p=%d %v: poisoned fault-in surfaced no error", p, format)
			}
			if !errors.Is(err, jem.ErrIndexChecksum) {
				t.Fatalf("p=%d %v: stream error %v does not wrap ErrIndexChecksum", p, format, err)
			}
			if len(stats.ShardsLost) == 0 {
				t.Fatalf("p=%d %v: degraded run named no lost shards", p, format)
			}
			if p == 1 && !reflect.DeepEqual(stats.ShardsLost, []int{0}) {
				t.Fatalf("p=1 %v: ShardsLost = %v, want [0]", format, stats.ShardsLost)
			}
			// Degraded output keeps its shape: the format's header, then
			// whole rows (PAF has none for unmapped segments), never a
			// torn file.
			header := map[jem.Format]string{jem.FormatTSV: "read_id", jem.FormatSAM: "@HD"}[format]
			if got := out.String(); !strings.HasPrefix(got, header) || (got != "" && !strings.HasSuffix(got, "\n")) {
				t.Fatalf("p=%d %v: degraded output lost its shape: %q", p, format, firstLine(got))
			}
		}
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
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
