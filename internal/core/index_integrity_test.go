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

	"repro/internal/fault"
	"repro/internal/seq"
)

func buildSmallMapper(t *testing.T, seed int64) (*Mapper, []seq.Record) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var contigs []seq.Record
	for i := 0; i < 10; i++ {
		contigs = append(contigs, seq.Record{
			ID:  fmt.Sprintf("contig_%d", i),
			Seq: randDNA(rng, 400+rng.Intn(800)),
		})
	}
	m, err := NewMapper(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	m.AddSubjectsParallel(contigs, 1)
	m.Seal()
	return m, contigs
}

// TestWriteIndexFileRoundTrip: the atomic file path round-trips and
// serves identically.
func TestWriteIndexFileRoundTrip(t *testing.T) {
	m, contigs := buildSmallMapper(t, 17)
	path := filepath.Join(t.TempDir(), "idx.jem")
	if err := m.WriteIndexFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, _, _, err := OpenIndexFile(path, MemorySpec{Mode: MemoryHeap})
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Sealed() {
		t.Fatal("frozen index did not load sealed")
	}
	s1, s2 := m.NewSession(), loaded.NewSession()
	for _, c := range contigs {
		seg := c.Seq[:min(len(c.Seq), smallParams().L)]
		h1, ok1 := s1.MapSegment(seg)
		h2, ok2 := s2.MapSegment(seg)
		if ok1 != ok2 || h1 != h2 {
			t.Fatalf("mapping diverged after reload: %v,%v != %v,%v", h1, ok1, h2, ok2)
		}
	}
}

// TestIndexChecksumDetectsCorruption: single-byte corruption anywhere
// in an index — manifest, footer, payload — must be rejected and
// identified as a checksum mismatch (the rebuildable kind).
func TestIndexChecksumDetectsCorruption(t *testing.T) {
	m, _ := buildSmallMapper(t, 19)
	var buf bytes.Buffer
	if err := m.WriteIndex(&buf); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	// Sanity: the clean bytes load.
	if _, err := ReadIndexObserved(bytes.NewReader(clean), nil); err != nil {
		t.Fatalf("clean index rejected: %v", err)
	}
	// Corrupt a spread of offsets across the body and the footer.
	offsets := []int{8, 16, 40, len(clean) / 2, len(clean) - 5, len(clean) - 1}
	for _, off := range offsets {
		bad := append([]byte(nil), clean...)
		bad[off] ^= 0x01
		_, err := ReadIndexObserved(bytes.NewReader(bad), nil)
		if err == nil {
			t.Errorf("offset %d: corrupted index accepted", off)
			continue
		}
		if !errors.Is(err, ErrIndexChecksum) {
			t.Errorf("offset %d: err=%v, want ErrIndexChecksum", off, err)
		}
	}
	// Truncations (including chopping into the footer) must fail too.
	for _, n := range []int{len(clean) - 1, len(clean) - 4, len(clean) / 2, 10} {
		if _, err := ReadIndexObserved(bytes.NewReader(clean[:n]), nil); err == nil {
			t.Errorf("truncated to %d bytes: accepted", n)
		}
	}
}

// TestWriteIndexFileAtomicOnFailure: an injected disk-full error mid
// write must leave the destination untouched — no partial index, no
// temp droppings, and any pre-existing file intact.
func TestWriteIndexFileAtomicOnFailure(t *testing.T) {
	defer fault.Reset()
	m, _ := buildSmallMapper(t, 29)
	dir := t.TempDir()
	path := filepath.Join(dir, "idx.jem")
	if err := os.WriteFile(path, []byte("previous index"), 0o644); err != nil {
		t.Fatal(err)
	}
	// After: 0 — the buffered index body can reach the file in a single
	// flushed write, so the very first write must be the one that fails.
	fault.Set(fault.WriterENOSPC, fault.Spec{})
	err := m.WriteIndexFile(path)
	if !errors.Is(err, fault.ErrNoSpace) {
		t.Fatalf("err=%v, want injected ENOSPC", err)
	}
	fault.Reset()
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "previous index" {
		t.Fatalf("pre-existing file damaged: %q, %v", got, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("temp file left behind: %s", e.Name())
		}
	}
}

// TestIndexByteFlipCaughtAtLoad: the full corruption story — a fault
// flips one byte of the written file, the checksum catches it at load
// time, and the caller can classify the failure for rebuild.
func TestIndexByteFlipCaughtAtLoad(t *testing.T) {
	defer fault.Reset()
	m, _ := buildSmallMapper(t, 31)
	path := filepath.Join(t.TempDir(), "idx.jem")
	fault.Set(fault.IndexByteFlip, fault.Spec{})
	if err := m.WriteIndexFile(path); err != nil {
		t.Fatal(err)
	}
	fault.Reset()
	_, _, _, err := OpenIndexFile(path, MemorySpec{Mode: MemoryHeap})
	if err == nil {
		t.Fatal("bit-flipped index accepted")
	}
	if !errors.Is(err, ErrIndexChecksum) {
		t.Fatalf("err=%v, want ErrIndexChecksum", err)
	}
}
