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

// FuzzReadIndex asserts that the index loader — run over the input as
// a file of len(data) bytes — and the fleet open error, never panic,
// and allocate no more than their input's length allows on arbitrary
// bytes, and that accepted indexes round-trip.
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
	if err := m.writeIndex(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// manifestMeta returns the identity of the index in data.
func manifestMeta(tb testing.TB, data []byte) IndexMeta {
	man, err := readManifest(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		tb.Fatal(err)
	}
	return man.meta()
}

// TestLoadAllocatesInProportionToInput loads two of FuzzReadIndex's
// crafted manifests, each behind a valid CRC, through every local
// loader and through the fleet open, against a fleet announcing the
// real index's identity:
//
//   - manifest-param-t-max claims T = 65536 over payloads of the real
//     trial count. Each open must fail before building the T-function
//     hash family — a loader on the trial count, the fleet open on the
//     fingerprint.
//   - manifest-subject-count-huge claims 2^28 subjects. Each open must
//     fail on the entries the file does not hold, having reserved a
//     subject table no larger than the file allows.
//
// What a failing open allocates stays within 64 KiB (the reader's
// buffer) plus 16 B per input byte.
func TestLoadAllocatesInProportionToInput(t *testing.T) {
	valid := fuzzIndex(t)
	fleet := &memQuerier{meta: manifestMeta(t, valid)}
	for _, seed := range []struct {
		name, field string
		// want is the text the local loaders' error names, and
		// wantFleet the fleet open's.
		want, wantFleet string
	}{
		{"manifest-param-t-max", "\x02\x00\x00\x01", "trials", "different index"},
		{"manifest-subject-count-huge", "\x06\x00\x00\x00\x10", "subject name length", "subject name length"},
	} {
		data := craftManifest(valid, []byte(seed.field))
		path := filepath.Join(t.TempDir(), "idx.jem")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for name, c := range map[string]struct {
			load func() error
			want string
		}{
			"heap": {func() error { _, _, _, err := OpenIndexFile(path, MemorySpec{Mode: MemoryHeap}); return err }, seed.want},
			"mmap": {func() error { _, _, _, err := OpenIndexFile(path, MemorySpec{Mode: MemoryMMap}); return err }, seed.want},
			"fleet": {func() error {
				_, err := OpenRemoteFile(path, func() (ShardQuerier, error) { return fleet, nil })
				return err
			}, seed.wantFleet},
		} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := c.load()
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("%s/%s: opening a crafted manifest gave %v, want an error naming %q", seed.name, name, err, c.want)
			}
			if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+16*len(data)); alloc > limit {
				t.Errorf("%s/%s: a failing open of %d bytes allocated %d, limit %d", seed.name, name, len(data), alloc, limit)
			}
		}
	}
}

// checkReadIndex decodes data, bounding what the decode allocates by
// its length, and round-trips an accepted index.
func checkReadIndex(t *testing.T, data []byte) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := readIndex(data, nil)
	runtime.ReadMemStats(&after)
	// Everything a load reads or reserves is bounded by the input's
	// length; the fixed part covers the sketcher and mapper an accepted
	// index builds (at most ≈6 KiB measured over a two-minute fuzz
	// session).
	if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(16<<10+16*len(data)); alloc > limit {
		t.Fatalf("decoding %d bytes allocated %d, limit %d", len(data), alloc, limit)
	}
	if err != nil {
		return
	}
	var out bytes.Buffer
	if err := got.writeIndex(&out); err != nil {
		t.Fatalf("re-encode of accepted index failed: %v", err)
	}
	again, err := readIndex(out.Bytes(), nil)
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
	man, err := readManifest(bytes.NewReader(data), int64(len(data)))
	var m *Mapper
	if err == nil {
		m, err = openRemote(man, func() (ShardQuerier, error) { return fleet, nil })
	}
	runtime.ReadMemStats(&after)
	// As for checkReadIndex, the fixed part covers the sketcher and
	// mapper of an accepted open (at most ≈5 KiB measured).
	if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(16<<10+16*len(data)); alloc > limit {
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
