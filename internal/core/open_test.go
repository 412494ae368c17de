package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
)

// writeIndex06Temp serializes a sharded mapper to a temp file and
// returns the path alongside the mapper and its probe segments.
func writeIndex06Temp(t *testing.T, p int) (string, *Mapper, [][]byte) {
	t.Helper()
	m, segs := shardedIndexMapper(t, p)
	var buf bytes.Buffer
	if err := m.writeIndex(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "idx.jemidx")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, m, segs
}

// assertSameAnswers maps every segment through both mappers and fails
// on the first divergence. The loaded session must also finish clean:
// no lost shards.
func assertSameAnswers(t *testing.T, tag string, orig, loaded *Mapper, segs [][]byte) {
	t.Helper()
	s1, s2 := orig.NewSession(), loaded.NewSession()
	for i, seg := range segs {
		h1, ok1 := s1.MapSegmentPositional(seg)
		h2, ok2 := s2.MapSegmentPositional(seg)
		if ok1 != ok2 || h1 != h2 {
			t.Fatalf("%s segment %d: %v,%v != %v,%v", tag, i, h2, ok2, h1, ok1)
		}
	}
	if lost := s2.LostShards(); lost != nil {
		t.Fatalf("%s: clean session lost shards %v", tag, lost)
	}
}

// TestOpenIndexFileMemoryModes: every memory mode answers byte-
// identically to the mapper that wrote the index, at several shard
// counts, and the closer and byte split obey the contract (heap: no
// closer, nothing mapped; mmap and auto: everything mapped behind a
// closer).
func TestOpenIndexFileMemoryModes(t *testing.T) {
	for _, p := range []int{1, 2, 8} {
		path, orig, segs := writeIndex06Temp(t, p)
		cases := []struct {
			name string
			spec MemorySpec
		}{
			{"heap", MemorySpec{Mode: MemoryHeap}},
			{"mmap", MemorySpec{Mode: MemoryMMap}},
			{"auto", MemorySpec{Mode: MemoryAuto}},
		}
		for _, c := range cases {
			m, info, closer, err := OpenIndexFile(path, c.spec)
			if err != nil {
				t.Fatalf("p=%d %s: %v", p, c.name, err)
			}
			assertSameAnswers(t, c.name, orig, m, segs)
			total := m.IndexBytes()
			if c.name == "heap" || !mmapSupported {
				if closer != nil || info.Mapped != 0 || info.Resident != total {
					t.Fatalf("p=%d %s: heap open closer=%v resident=%d mapped=%d of %d", p, c.name, closer, info.Resident, info.Mapped, total)
				}
			} else if closer == nil || info.Resident != 0 || info.Mapped != total || total <= 0 {
				t.Fatalf("p=%d %s: mapped open closer=%v resident=%d mapped=%d of %d", p, c.name, closer, info.Resident, info.Mapped, total)
			}
			if closer != nil {
				if err := closer.Close(); err != nil {
					t.Fatalf("p=%d %s: close: %v", p, c.name, err)
				}
			}
		}
	}
}

// TestOpenIndexFileCorruptionMatrix: every way a JEMIDX06 file can rot
// — truncated payload, flipped payload byte, corrupted manifest footer
// — is detected at open under every memory mode, and the error wraps
// ErrIndexChecksum so load-or-rebuild callers can react. No mode defers
// a shard's verification past the open.
func TestOpenIndexFileCorruptionMatrix(t *testing.T) {
	corruptions := []struct {
		name    string
		corrupt func(t *testing.T, path string, man *shardedManifest)
	}{
		{"truncated-payload", func(t *testing.T, path string, _ *shardedManifest) {
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, st.Size()-1); err != nil {
				t.Fatal(err)
			}
		}},
		{"flipped-payload-byte", func(t *testing.T, path string, _ *shardedManifest) {
			if err := fault.FlipFileByte(path); err != nil {
				t.Fatal(err)
			}
		}},
		{"manifest-crc-mismatch", func(t *testing.T, path string, man *shardedManifest) {
			f, err := os.OpenFile(path, os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			// The last manifest byte is part of the CRC footer itself:
			// flipping it breaks the footer without disturbing the
			// decodable body.
			var b [1]byte
			if _, err := f.ReadAt(b[:], man.end-1); err != nil {
				t.Fatal(err)
			}
			b[0] ^= 0x40
			if _, err := f.WriteAt(b[:], man.end-1); err != nil {
				t.Fatal(err)
			}
		}},
	}
	specs := []struct {
		name string
		spec MemorySpec
	}{
		{"heap", MemorySpec{Mode: MemoryHeap}},
		{"mmap", MemorySpec{Mode: MemoryMMap}},
		{"auto", MemorySpec{Mode: MemoryAuto}},
	}
	for _, c := range corruptions {
		for _, s := range specs {
			t.Run(c.name+"/"+s.name, func(t *testing.T) {
				path, _, _ := writeIndex06Temp(t, 3)
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				c.corrupt(t, path, parseManifest06(t, raw))
				m, _, closer, err := OpenIndexFile(path, s.spec)
				if err == nil {
					if closer != nil {
						_ = closer.Close()
					}
					t.Fatalf("corrupt index served (mapper=%v)", m != nil)
				}
				if !errors.Is(err, ErrIndexChecksum) {
					t.Fatalf("error %v does not wrap ErrIndexChecksum", err)
				}
			})
		}
	}
}

// TestOpenShardSubsetMapped: the shard-server open path serves the
// kept shards from a shared mapping byte-identically to the heap
// subset reader.
func TestOpenShardSubsetMapped(t *testing.T) {
	if !mmapSupported {
		t.Skip("no mmap on this platform")
	}
	path, _, _ := writeIndex06Temp(t, 4)
	keep := func(sd int) bool { return sd%2 == 0 }
	heapTabs, heapMeta, err := ReadShardSubsetFile(path, keep)
	if err != nil {
		t.Fatal(err)
	}
	mapTabs, mapMeta, closer, err := OpenShardSubset(path, keep, MemorySpec{Mode: MemoryMMap})
	if err != nil {
		t.Fatal(err)
	}
	if closer == nil {
		t.Fatal("mapped subset open returned no closer")
	}
	defer closer.Close()
	if heapMeta != mapMeta {
		t.Fatalf("meta %+v != %+v", mapMeta, heapMeta)
	}
	if len(mapTabs) != len(heapTabs) {
		t.Fatalf("kept %d shards, want %d", len(mapTabs), len(heapTabs))
	}
	for sd, ht := range heapTabs {
		mt, ok := mapTabs[sd]
		if !ok {
			t.Fatalf("shard %d missing from mapped subset", sd)
		}
		if mt.Entries() != ht.Entries() || mt.T() != ht.T() {
			t.Fatalf("shard %d: entries/trials differ", sd)
		}
	}
}
