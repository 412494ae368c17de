package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime"
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
	m, err := NewMapper(smallParams())
	if err != nil {
		f.Fatal(err)
	}
	m.AddSubjectsParallel([]seq.Record{{ID: "c0", Seq: []byte("ACGTTGCAACGGATCCATGCAAGTCGATCGTAGCTAGGCTAACGTCAGT")}}, 1)
	m.SealSharded(2, 0)
	var buf bytes.Buffer
	if err := m.WriteIndex(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
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
