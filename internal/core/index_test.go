package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/seq"
	"repro/internal/sketch"
)

// readIndex runs the loader over index bytes held in memory, as a
// file of len(data) bytes read onto the heap; sp is as for loadIndex.
func readIndex(data []byte, sp *obs.Span) (*Mapper, error) {
	ld, err := loadIndex(bytes.NewReader(data), int64(len(data)), nil, nil, sp)
	if err != nil {
		return nil, err
	}
	m, _, err := ld.mapper()
	return m, err
}

func TestIndexRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	var contigs []seq.Record
	for i := 0; i < 25; i++ {
		contigs = append(contigs, seq.Record{
			ID:  fmt.Sprintf("contig_%d", i),
			Seq: randDNA(rng, 400+rng.Intn(1500)),
		})
	}
	p := smallParams()
	orig, err := NewMapper(p)
	if err != nil {
		t.Fatal(err)
	}
	orig.AddSubjectsParallel(contigs, 1)

	// An unsealed mapper has no serving table to serialize.
	var buf bytes.Buffer
	if err := orig.writeIndex(&buf); err == nil {
		t.Fatal("writeIndex on an unsealed mapper succeeded")
	}
	if buf.Len() != 0 {
		t.Fatalf("refused write still emitted %d bytes", buf.Len())
	}
	orig.Seal()
	if err := orig.writeIndex(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := readIndex(buf.Bytes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumSubjects() != orig.NumSubjects() {
		t.Fatalf("subjects %d != %d", loaded.NumSubjects(), orig.NumSubjects())
	}
	for i := int32(0); int(i) < orig.NumSubjects(); i++ {
		if loaded.Subject(i) != orig.Subject(i) {
			t.Fatalf("subject %d metadata differs", i)
		}
	}
	if loaded.Entries() != orig.Entries() {
		t.Fatalf("entries %d != %d", loaded.Entries(), orig.Entries())
	}
	if loaded.Sketcher().Params() != orig.Sketcher().Params() {
		t.Fatalf("params differ")
	}
	// Identical mapping decisions, including positional ones.
	compareMappers(t, rng, contigs, orig, loaded)
}

func TestReadIndexRejectsGarbage(t *testing.T) {
	if _, err := readIndex(nil, nil); err == nil {
		t.Error("empty input should fail")
	}
	if _, err := readIndex([]byte("NOTANINDEXATALL!"), nil); err == nil {
		t.Error("bad magic should fail")
	}
	// Valid magic, truncated body.
	var buf bytes.Buffer
	buf.Write(indexMagic[:])
	buf.Write([]byte{1, 2, 3})
	if _, err := readIndex(buf.Bytes(), nil); err == nil {
		t.Error("truncated index should fail")
	}
}

func TestReadIndexRejectsBadParams(t *testing.T) {
	m, _ := NewMapper(smallParams())
	m.Seal()
	var buf bytes.Buffer
	if err := m.writeIndex(&buf); err != nil {
		t.Fatal(err)
	}
	b := bytes.Clone(buf.Bytes())
	// Corrupt K (first param word after the 8-byte magic) to zero.
	for i := 8; i < 16; i++ {
		b[i] = 0
	}
	if _, err := readIndex(b, nil); err == nil {
		t.Error("invalid params should fail")
	}
	// An unknown minimizer ordering (the sixth param) behind a valid
	// manifest CRC.
	if _, err := readIndex(craftManifest(buf.Bytes(), []byte{5, 7}), nil); err == nil {
		t.Error("an unknown minimizer ordering should fail")
	}
}

// TestIndexRoundTripSealed: a sealed mapper loads back as a sealed
// one-shard mapper with identical mapping behaviour.
func TestIndexRoundTripSealed(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	var contigs []seq.Record
	for i := 0; i < 25; i++ {
		contigs = append(contigs, seq.Record{
			ID:  fmt.Sprintf("contig_%d", i),
			Seq: randDNA(rng, 400+rng.Intn(1500)),
		})
	}
	p := smallParams()
	orig, err := NewMapper(p)
	if err != nil {
		t.Fatal(err)
	}
	orig.AddSubjectsParallel(contigs, 1)
	orig.Seal()

	var buf bytes.Buffer
	if err := orig.writeIndex(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := readIndex(buf.Bytes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Sealed() || loaded.Frozen() == nil {
		t.Fatal("index did not load as a sealed one-shard mapper")
	}
	if loaded.Entries() != orig.Entries() {
		t.Fatalf("entries %d != %d", loaded.Entries(), orig.Entries())
	}
	if loaded.NumSubjects() != orig.NumSubjects() {
		t.Fatalf("subjects %d != %d", loaded.NumSubjects(), orig.NumSubjects())
	}
	compareMappers(t, rng, contigs, orig, loaded)
}

// TestIndexRoundTripDistributedFrozen is the regression test for the
// empty-index bug: a driver that registers subjects and gathers
// per-rank sketches used to save an index whose table section was
// empty. The full gather -> save -> load -> map loop must work.
func TestIndexRoundTripDistributedFrozen(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	var contigs []seq.Record
	for i := 0; i < 24; i++ {
		contigs = append(contigs, seq.Record{
			ID:  fmt.Sprintf("contig_%d", i),
			Seq: randDNA(rng, 500+rng.Intn(1000)),
		})
	}
	p := smallParams()
	sk, err := sketch.NewSketcher(p)
	if err != nil {
		t.Fatal(err)
	}
	// Two "ranks" sketch half the contigs each into their own
	// appenders on one builder; freezing it is the gather merge, exactly
	// as internal/dist does it.
	b := sketch.NewBuilder(p.T)
	var gathered int64
	for r := 0; r < 2; r++ {
		a := b.Appender()
		for i := r * 12; i < (r+1)*12; i++ {
			sk.AppendSubject(a, int32(i), contigs[i].Seq, false)
		}
		gathered += a.Bytes()
	}
	sf, err := b.Freeze(1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewSealed(p, SubjectsOf(contigs), sf)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := m.writeIndex(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := readIndex(buf.Bytes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Entries() == 0 {
		t.Fatal("regression: saved index lost the gathered table (0 entries)")
	}
	// 16 bytes a gathered record; only a word a contig sketched twice
	// is not an entry.
	if loaded.Entries() != m.Entries() || int64(loaded.Entries()) > gathered/16 {
		t.Fatalf("entries %d, built %d, gathered records %d", loaded.Entries(), m.Entries(), gathered/16)
	}
	compareMappers(t, rng, contigs, m, loaded)
}

// TestReadIndexRetiredMagics: the formats that preceded JEMIDX06 are
// refused by name with the way out (rebuild), on every entry point —
// plainly, not as a checksum failure a load-or-rebuild caller would
// silently paper over.
func TestReadIndexRetiredMagics(t *testing.T) {
	for _, magic := range []string{"JEMIDX02", "JEMIDX03", "JEMIDX04", "JEMIDX05"} {
		t.Run(magic, func(t *testing.T) {
			body := append([]byte(magic), bytes.Repeat([]byte{1}, 64)...)
			path := filepath.Join(t.TempDir(), "old.jem")
			if err := os.WriteFile(path, body, 0o644); err != nil {
				t.Fatal(err)
			}
			_, rerr := readIndex(body, nil)
			_, _, _, oerr := OpenIndexFile(path, MemorySpec{Mode: MemoryMMap})
			_, merr := OpenRemoteFile(path, noDial(t))
			_, _, serr := ReadShardSubsetFile(path, func(int) bool { return true })
			for name, err := range map[string]error{"loadIndex": rerr, "OpenIndexFile": oerr, "OpenRemoteFile": merr, "ReadShardSubsetFile": serr} {
				if err == nil || !strings.Contains(err.Error(), magic+" is no longer supported") || !strings.Contains(err.Error(), "-save-index") {
					t.Errorf("%s: error %v does not name the retired format and the rebuild", name, err)
				}
				if errors.Is(err, ErrIndexChecksum) {
					t.Errorf("%s: retired format reported as corruption: %v", name, err)
				}
			}
		})
	}
}

// compareMappers asserts two mappers agree on a mix of on-contig and
// random segments, positionally.
func compareMappers(t *testing.T, rng *rand.Rand, contigs []seq.Record, a, b *Mapper) {
	t.Helper()
	p := a.Sketcher().Params()
	s1, s2 := a.NewSession(), b.NewSession()
	for i := 0; i < 40; i++ {
		var seg []byte
		if i%2 == 0 {
			c := contigs[rng.Intn(len(contigs))].Seq
			off := rng.Intn(len(c)/2 + 1)
			end := off + p.L
			if end > len(c) {
				end = len(c)
			}
			seg = c[off:end]
		} else {
			seg = randDNA(rng, p.L)
		}
		h1, ok1 := s1.MapSegmentPositional(seg)
		h2, ok2 := s2.MapSegmentPositional(seg)
		if ok1 != ok2 || h1 != h2 {
			t.Fatalf("segment %d: %v,%v != %v,%v", i, h1, ok1, h2, ok2)
		}
	}
}
