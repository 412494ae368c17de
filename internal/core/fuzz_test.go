package core

import (
	"bufio"
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

// FuzzReadIndex asserts that the index deserializer and the fleet open
// error, never panic, and allocate no more than their input's length
// allows on arbitrary bytes, and that accepted indexes round-trip.
// Every input is tried twice: as index bytes, and as a rewrite of one
// manifest field of a valid index (see craftManifest) whose manifest
// CRC is then recomputed, so a crafted field reaches the validators
// instead of failing at the checksum.
func FuzzReadIndex(f *testing.F) {
	valid := fuzzIndex(f)
	fleet := &memQuerier{meta: manifestMeta(f, valid)}
	f.Add(valid)
	f.Add(valid[:len(valid)-7])
	f.Add([]byte{})
	// Retired magics stay pinned to "error, never panic".
	f.Add([]byte("JEMIDX02"))
	f.Add([]byte("JEMIDX03"))
	f.Add(bytes.Repeat([]byte{0xFF}, 128))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReadIndex(t, data)
		checkOpenRemote(t, data, fleet)
		if crafted := craftManifest(valid, data); crafted != nil {
			checkReadIndex(t, crafted)
			checkOpenRemote(t, crafted, fleet)
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

// manifestMeta returns the identity of the index in data.
func manifestMeta(tb testing.TB, data []byte) IndexMeta {
	man, err := readManifest(bufio.NewReader(bytes.NewReader(data)))
	if err != nil {
		tb.Fatal(err)
	}
	return man.meta()
}

// TestLoadAllocatesInProportionToInput loads FuzzReadIndex's
// manifest-param-t-max seed — a manifest claiming T = 65536 behind a
// valid CRC, over payloads of the real trial count — through every
// local loader and through the fleet open, against a fleet announcing
// the real index's identity. Each must fail before building the
// T-function hash family — a loader on the trial count, the fleet open
// on the fingerprint — so what it allocates stays within 64 KiB (the
// reader's buffer) plus 16 B per input byte.
func TestLoadAllocatesInProportionToInput(t *testing.T) {
	valid := fuzzIndex(t)
	data := craftManifest(valid, []byte("\x02\x00\x00\x01"))
	path := filepath.Join(t.TempDir(), "idx.jem")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	fleet := &memQuerier{meta: manifestMeta(t, valid)}
	for name, c := range map[string]struct {
		load func() error
		want string
	}{
		"ReadIndex": {func() error { _, err := ReadIndexObserved(bytes.NewReader(data), nil); return err }, "trials"},
		"heap":      {func() error { _, _, _, err := OpenIndexFile(path, MemorySpec{Mode: MemoryHeap}); return err }, "trials"},
		"mmap":      {func() error { _, _, _, err := OpenIndexFile(path, MemorySpec{Mode: MemoryMMap}); return err }, "trials"},
		"fleet": {func() error {
			_, err := OpenRemoteFile(path, func() (ShardQuerier, error) { return fleet, nil })
			return err
		}, "different index"},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.load()
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: opening a manifest that lies about T gave %v, want an error naming %q", name, err, c.want)
		}
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+16*len(data)); alloc > limit {
			t.Errorf("%s: a failing open of %d bytes allocated %d, limit %d", name, len(data), alloc, limit)
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

// checkOpenRemote runs data through the fleet open — the manifest read,
// then the fingerprint check against fleet — bounding what it
// allocates by data's length. Only the index fleet announces opens.
func checkOpenRemote(t *testing.T, data []byte, fleet *memQuerier) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	man, err := readManifest(bufio.NewReaderSize(bytes.NewReader(data), 1<<16))
	var m *Mapper
	if err == nil {
		m, err = openRemote(man, func() (ShardQuerier, error) { return fleet, nil })
	}
	runtime.ReadMemStats(&after)
	// The fixed part covers the reader's buffer and the subject table a
	// manifest may reserve before its entries are read (65,536 × 24 B).
	if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(2<<20+16*len(data)); alloc > limit {
		t.Fatalf("opening %d bytes against a fleet allocated %d, limit %d", len(data), alloc, limit)
	}
	if err == nil && (m.Shards() != fleet.meta.Shards || m.NumSubjects() != fleet.meta.NumSubjects) {
		t.Fatalf("the fleet open of %+v serves %d shards over %d subjects", fleet.meta, m.Shards(), m.NumSubjects())
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
