package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/seq"
)

// FuzzReadIndex asserts that the index deserializer errors, never
// panics, and allocates no more than its input's length allows on
// arbitrary bytes, and that accepted indexes round-trip. Every input is
// tried twice: as index bytes, and as a rewrite of one manifest field
// of a valid index (see craftManifest) whose manifest CRC is then
// recomputed, so a crafted field reaches the validators instead of
// failing at the checksum.
func FuzzReadIndex(f *testing.F) {
	valid := fuzzIndex(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-7])
	f.Add([]byte{})
	// Retired magics stay pinned to "error, never panic".
	f.Add([]byte("JEMIDX02"))
	f.Add([]byte("JEMIDX03"))
	f.Add(bytes.Repeat([]byte{0xFF}, 128))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReadIndex(t, data)
		if crafted := craftManifest(valid, data); crafted != nil {
			checkReadIndex(t, crafted)
		}
	})
}

// fuzzIndex is the valid index FuzzReadIndex mutates: one subject,
// two shards.
func fuzzIndex(tb testing.TB) []byte {
	m, err := NewMapper(smallParams())
	if err != nil {
		tb.Fatal(err)
	}
	m.AddSubjectsParallel([]seq.Record{{ID: "c0", Seq: []byte("ACGTTGCAACGGATCCATGCAAGTCGATCGTAGCTAGGCTAACGTCAGT")}}, 1)
	m.SealSharded(2, 0)
	var buf bytes.Buffer
	if err := m.WriteIndex(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadAllocatesInProportionToInput loads FuzzReadIndex's
// manifest-param-t-max seed — a manifest claiming T = 65536 behind a
// valid CRC, over payloads of the real trial count — through every
// local loader. Each must fail on the trial count before building the
// T-function hash family, so what it allocates stays within 64 KiB
// (the reader's buffer) plus 16 B per input byte.
func TestLoadAllocatesInProportionToInput(t *testing.T) {
	data := craftManifest(fuzzIndex(t), []byte("\x02\x00\x00\x01"))
	path := filepath.Join(t.TempDir(), "idx.jem")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, load := range map[string]func() error{
		"ReadIndex": func() error { _, err := ReadIndexObserved(bytes.NewReader(data), nil); return err },
		"heap":      func() error { _, _, _, err := OpenIndexFile(path, MemorySpec{Mode: MemoryHeap}); return err },
		"mmap":      func() error { _, _, _, err := OpenIndexFile(path, MemorySpec{Mode: MemoryMMap}); return err },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := load()
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "trials") {
			t.Fatalf("%s: loading a manifest that lies about T gave %v, want a trial-count error", name, err)
		}
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+16*len(data)); alloc > limit {
			t.Errorf("%s: a failing load of %d bytes allocated %d, limit %d", name, len(data), alloc, limit)
		}
	}
}

// checkReadIndex decodes data, bounding what the decode allocates by
// its length, and round-trips an accepted index.
func checkReadIndex(t *testing.T, data []byte) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := ReadIndexObserved(bytes.NewReader(data), nil)
	runtime.ReadMemStats(&after)
	// The fixed part covers the hash family and subject table of the
	// largest valid T and subject count, the reader's buffer and the
	// first payload chunk of a stream of unknown size.
	if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(6<<20+16*len(data)); alloc > limit {
		t.Fatalf("decoding %d bytes allocated %d, limit %d", len(data), alloc, limit)
	}
	if err != nil {
		return
	}
	var out bytes.Buffer
	if err := got.WriteIndex(&out); err != nil {
		t.Fatalf("re-encode of accepted index failed: %v", err)
	}
	again, err := ReadIndexObserved(&out, nil)
	if err != nil {
		t.Fatalf("decode of re-encoding failed: %v", err)
	}
	if again.NumSubjects() != got.NumSubjects() ||
		again.Entries() != got.Entries() ||
		again.Sketcher().Params() != got.Sketcher().Params() {
		t.Fatal("unstable index round trip")
	}
}

// craftManifest rewrites one manifest field of the valid index and
// recomputes the manifest CRC. data[0] picks the field — one of the six
// params, the subject count, the first name length, the shard count,
// the page size, or a directory entry's offset, length or CRC — and
// data[1:] is its new little-endian value. It returns nil for empty
// data.
func craftManifest(valid, data []byte) []byte {
	if len(data) == 0 {
		return nil
	}
	type field struct{ off, width int }
	var fields []field
	for i := 0; i < 6; i++ {
		fields = append(fields, field{8 + 8*i, 8}) // K, W, T, L, seed, order
	}
	pos := 8 + 6*8
	fields = append(fields, field{pos, 4}) // subject count
	nsubj := int(binary.LittleEndian.Uint32(valid[pos:]))
	pos += 4
	for i := 0; i < nsubj; i++ {
		if i == 0 {
			fields = append(fields, field{pos, 4}) // name length
		}
		pos += 4 + int(binary.LittleEndian.Uint32(valid[pos:])) + 4
	}
	nshards := int(binary.LittleEndian.Uint32(valid[pos:]))
	fields = append(fields, field{pos, 4}, field{pos + 4, 4}) // shard count, page size
	pos += 8
	for i := 0; i < nshards; i++ {
		fields = append(fields, field{pos, 8}, field{pos + 8, 8}, field{pos + 16, 4}) // offset, length, CRC
		pos += 20
	}
	out := bytes.Clone(valid)
	fd := fields[int(data[0])%len(fields)]
	var v [8]byte
	copy(v[:], data[1:])
	copy(out[fd.off:fd.off+fd.width], v[:fd.width])
	binary.LittleEndian.PutUint32(out[pos:], crc32.ChecksumIEEE(out[:pos]))
	return out
}
