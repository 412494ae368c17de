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
	if err := m.WriteIndex(&buf); err != nil {
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
// no latched error, no lost shards.
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
	if err := s2.Err(); err != nil {
		t.Fatalf("%s: clean session latched %v", tag, err)
	}
	if lost := s2.LostShards(); lost != nil {
		t.Fatalf("%s: clean session lost shards %v", tag, lost)
	}
}

// TestOpenIndexFileMemoryModes: every memory mode answers byte-
// identically to the mapper that wrote the index, at several shard
// counts, and the reported residences and closer obey the contract
// (heap: no closer, nothing mapped; mmap: everything mapped behind a
// closer; budgeted auto: hot prefix on the heap, the rest lazy).
func TestOpenIndexFileMemoryModes(t *testing.T) {
	for _, p := range []int{1, 2, 8} {
		path, orig, segs := writeIndex06Temp(t, p)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		man := parseManifest06(t, raw)
		cases := []struct {
			name string
			spec MemorySpec
		}{
			{"heap", MemorySpec{Mode: MemoryHeap}},
			{"mmap", MemorySpec{Mode: MemoryMMap}},
			{"auto", MemorySpec{Mode: MemoryAuto}},
			{"budgeted", MemorySpec{Mode: MemoryAuto, Budget: int64(man.lens[0])}},
		}
		for _, c := range cases {
			m, info, closer, err := OpenIndexFile(path, c.spec)
			if err != nil {
				t.Fatalf("p=%d %s: %v", p, c.name, err)
			}
			assertSameAnswers(t, c.name, orig, m, segs)
			if len(info.Shards) != p {
				t.Fatalf("p=%d %s: %d residences reported", p, c.name, len(info.Shards))
			}
			switch {
			case c.name == "heap" || !mmapSupported:
				if closer != nil || info.Mapped != 0 {
					t.Fatalf("p=%d %s: heap open left a mapping (closer=%v mapped=%d)", p, c.name, closer, info.Mapped)
				}
				for _, r := range info.Shards {
					if r != ResidenceHeap {
						t.Fatalf("p=%d %s: residence %v", p, c.name, r)
					}
				}
			case c.name == "budgeted":
				// Shard 0 fits the budget exactly; the rest are lazy —
				// except a single-shard index, which is all heap (the
				// sole shard fits) and needs no mapping.
				if p == 1 {
					if info.Shards[0] != ResidenceHeap || closer != nil {
						t.Fatalf("p=1 budgeted: %v closer=%v", info.Shards, closer)
					}
					break
				}
				if info.Shards[0] != ResidenceHeap {
					t.Fatalf("p=%d budgeted: shard 0 is %v", p, info.Shards[0])
				}
				for sd := 1; sd < p; sd++ {
					if info.Shards[sd] != ResidenceLazy {
						t.Fatalf("p=%d budgeted: shard %d is %v", p, sd, info.Shards[sd])
					}
				}
				if closer == nil || info.Resident <= 0 || info.Mapped <= 0 {
					t.Fatalf("p=%d budgeted: closer=%v resident=%d mapped=%d", p, closer, info.Resident, info.Mapped)
				}
			default: // mmap, auto with no budget
				if closer == nil || info.Mapped <= 0 {
					t.Fatalf("p=%d %s: closer=%v mapped=%d", p, c.name, closer, info.Mapped)
				}
				for _, r := range info.Shards {
					if r != ResidenceMapped {
						t.Fatalf("p=%d %s: residence %v", p, c.name, r)
					}
				}
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
// — is detected at open by both the heap and the mapped path, and the
// error wraps ErrIndexChecksum so load-or-rebuild callers can react.
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

// TestLazyFaultInByteFlip: a budgeted open leaves cold shards lazy;
// when the deferred CRC verification of such a shard fails (injected
// via index.faultin.byteflip — the mapping is read-only, so the fault
// perturbs the computed checksum), the query completes degraded: the
// session latches an error wrapping ErrIndexChecksum, reports the
// shard lost, and still answers from the surviving shards.
func TestLazyFaultInByteFlip(t *testing.T) {
	if !mmapSupported {
		t.Skip("no mmap on this platform")
	}
	// p = 4 with room for shard 0 leaves three lazy shards among an
	// eager one; p = 1 with a budget one byte short leaves the whole
	// index lazy — lost, every query is a miss that names shard 0.
	for _, tc := range []struct {
		p         int
		shortfall int64
	}{{4, 0}, {1, 1}} {
		path, orig, segs := writeIndex06Temp(t, tc.p)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		spec := MemorySpec{Mode: MemoryAuto, Budget: int64(parseManifest06(t, raw).lens[0]) - tc.shortfall}
		m, info, closer, err := OpenIndexFile(path, spec)
		if err != nil {
			t.Fatal(err)
		}
		if closer != nil {
			defer closer.Close()
		}
		var lazyShards int
		for _, r := range info.Shards {
			if r == ResidenceLazy {
				lazyShards++
			}
		}
		if lazyShards == 0 {
			t.Fatalf("p=%d: budget left no lazy shard: %v", tc.p, info.Shards)
		}

		fault.Set(fault.IndexFaultinByteFlip, fault.Spec{})
		defer fault.Reset()
		sess := m.NewSession()
		var answered int
		for _, seg := range segs {
			if _, ok := sess.MapSegmentPositional(seg); ok {
				answered++
			}
		}
		if err := sess.Err(); err == nil {
			t.Fatalf("p=%d: no error latched despite poisoned fault-ins", tc.p)
		} else if !errors.Is(err, ErrIndexChecksum) {
			t.Fatalf("p=%d: latched %v, want ErrIndexChecksum", tc.p, err)
		}
		lost := sess.LostShards()
		if len(lost) == 0 || len(lost) > lazyShards {
			t.Fatalf("p=%d: lost shards %v with %d lazy", tc.p, lost, lazyShards)
		}
		for _, sd := range lost {
			if info.Shards[sd] != ResidenceLazy {
				t.Fatalf("p=%d: eager shard %d reported lost", tc.p, sd)
			}
		}
		if tc.p == 1 && (answered != 0 || sess.PostingsScanned() != 0) {
			t.Fatalf("p=1: lost index answered %d segments from %d postings", answered, sess.PostingsScanned())
		}

		// The lazy slot's outcome is sticky: a second session on the
		// same mapper sees the same shards lost without re-firing the
		// fault.
		fault.Reset()
		again := m.NewSession()
		for _, seg := range segs {
			again.MapSegmentPositional(seg)
		}
		if got := again.LostShards(); len(got) == 0 {
			t.Fatalf("p=%d: poisoned lazy slots forgot their outcome", tc.p)
		}

		// Degraded, not wrong: a fresh open of the same (intact) file
		// serves byte-identically to the mapper that wrote it.
		m2, _, closer2, err := OpenIndexFile(path, spec)
		if err != nil {
			t.Fatal(err)
		}
		if closer2 != nil {
			defer closer2.Close()
		}
		assertSameAnswers(t, "fresh reopen", orig, m2, segs)
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
