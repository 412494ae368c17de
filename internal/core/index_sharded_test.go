package core

import (
	"bytes"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
)

// shardedIndexMapper builds a sharded mapper over a toy world plus the
// reads to probe it with.
func shardedIndexMapper(t *testing.T, p int) (*Mapper, [][]byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	_, contigs, reads, _ := makeWorld(t, rng, 14_000, 1000, 12)
	m, err := NewMapper(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	m.AddSubjectsParallel(contigs, 1)
	m.SealSharded(p, 0)
	segs := make([][]byte, len(reads))
	for i, rd := range reads {
		segs[i] = rd.Seq[:smallParams().L]
	}
	return m, segs
}

// parseManifest06 re-reads the manifest of serialized JEMIDX06 bytes,
// giving corruption tests the directory offsets and the manifest end.
func parseManifest06(t *testing.T, b []byte) *shardedManifest {
	t.Helper()
	man, err := readManifest(bytes.NewReader(b), int64(len(b)))
	if err != nil {
		t.Fatal(err)
	}
	return man
}

func TestShardedIndexRoundTrip(t *testing.T) {
	for _, p := range []int{1, 2, 3, 8} {
		orig, segs := shardedIndexMapper(t, p)
		var buf bytes.Buffer
		if err := orig.writeIndex(&buf); err != nil {
			t.Fatal(err)
		}
		if got := string(buf.Bytes()[:8]); got != "JEMIDX06" {
			t.Fatalf("sealed mapper wrote magic %q, want JEMIDX06", got)
		}
		loaded, err := readIndex(buf.Bytes(), nil)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if !loaded.Sealed() || loaded.Shards() != p {
			t.Fatalf("p=%d: loaded mapper has %d shards, sealed=%v", p, loaded.Shards(), loaded.Sealed())
		}
		if loaded.Entries() != orig.Entries() {
			t.Fatalf("p=%d: entries %d != %d", p, loaded.Entries(), orig.Entries())
		}
		if loaded.NumSubjects() != orig.NumSubjects() {
			t.Fatalf("p=%d: subjects differ", p)
		}
		s1, s2 := orig.NewSession(), loaded.NewSession()
		for i, seg := range segs {
			h1, ok1 := s1.MapSegmentPositional(seg)
			h2, ok2 := s2.MapSegmentPositional(seg)
			if ok1 != ok2 || h1 != h2 {
				t.Fatalf("p=%d segment %d: %v,%v != %v,%v", p, i, h1, ok1, h2, ok2)
			}
		}
	}
}

// TestShardedIndexObservedLoad: the loader emits one child
// span per shard.
func TestShardedIndexObservedLoad(t *testing.T) {
	orig, _ := shardedIndexMapper(t, 4)
	var buf bytes.Buffer
	if err := orig.writeIndex(&buf); err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	sp := tr.Start("read")
	if _, err := readIndex(buf.Bytes(), sp); err != nil {
		t.Fatal(err)
	}
	sp.End()
	if kids := sp.Children(); len(kids) != 4 {
		t.Fatalf("observed load produced %d shard spans, want 4", len(kids))
	}
}

func TestShardedIndexCorruptManifest(t *testing.T) {
	orig, _ := shardedIndexMapper(t, 3)
	var buf bytes.Buffer
	if err := orig.writeIndex(&buf); err != nil {
		t.Fatal(err)
	}
	b := append([]byte(nil), buf.Bytes()...)
	// Flip a byte inside the manifest (just past the magic: the params
	// block), which must trip the manifest CRC before any decode.
	b[10] ^= 0xff
	_, err := readIndex(b, nil)
	if err == nil {
		t.Fatal("corrupt manifest loaded")
	}
	// Either the field-level validation or the manifest checksum may
	// fire first depending on which byte flips; a flip that survives
	// field validation MUST be caught by the checksum. Flip a byte in
	// the shard directory (just before the manifest footer) to force
	// that path.
	man := parseManifest06(t, buf.Bytes())
	b = append(b[:0:0], buf.Bytes()...)
	b[man.end-8] ^= 0xff
	if _, err := readIndex(b, nil); !errors.Is(err, ErrIndexChecksum) {
		t.Fatalf("directory corruption error = %v, want ErrIndexChecksum", err)
	}
}

func TestShardedIndexCorruptPayload(t *testing.T) {
	orig, _ := shardedIndexMapper(t, 3)
	var buf bytes.Buffer
	if err := orig.writeIndex(&buf); err != nil {
		t.Fatal(err)
	}
	b := append([]byte(nil), buf.Bytes()...)
	// Flip a byte in the last shard's payload (the file ends at the
	// last payload byte): the manifest stays valid, so the per-shard
	// CRC must catch it.
	b[len(b)-3] ^= 0x01
	_, err := readIndex(b, nil)
	if !errors.Is(err, ErrIndexChecksum) {
		t.Fatalf("payload corruption error = %v, want ErrIndexChecksum", err)
	}
}

// TestViewShardChecksTrialCount: a payload whose CRC matches but whose
// trial count disagrees with the manifest's sketch parameters is
// refused by the loader's one verify-then-view step.
func TestViewShardChecksTrialCount(t *testing.T) {
	orig, _ := shardedIndexMapper(t, 2)
	payload := orig.sharded.Shard(1).Payload()
	crc := crc32.ChecksumIEEE(payload)
	trials := orig.sk.Params().T
	if _, err := viewShard(1, payload, crc, false, trials); err != nil {
		t.Fatalf("intact payload refused: %v", err)
	}
	if _, err := viewShard(1, payload, crc, false, trials+1); err == nil {
		t.Fatal("payload with the wrong trial count accepted")
	}
}

func TestShardedIndexMissingShard(t *testing.T) {
	orig, _ := shardedIndexMapper(t, 3)
	var buf bytes.Buffer
	if err := orig.writeIndex(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	man := parseManifest06(t, full)
	// Chop the file in the middle of the final shard's payload
	// (simulates a truncated copy); the loader must fail with a
	// checksum-class error so load-or-rebuild callers rebuild.
	last := man.offs[len(man.offs)-1]
	trunc := full[:int(last)+int(man.lens[len(man.lens)-1])/2]
	_, err := readIndex(trunc, nil)
	if err == nil {
		t.Fatal("truncated sharded index loaded")
	}
	if !errors.Is(err, ErrIndexChecksum) {
		t.Fatalf("missing-shard error = %v, want ErrIndexChecksum class", err)
	}
}

// TestShardedIndexFaultInjectedFlip drives the whole on-disk path: an
// atomic WriteIndexFile with the index.byteflip fault armed must yield
// a file that a heap OpenIndexFile rejects with ErrIndexChecksum.
func TestShardedIndexFaultInjectedFlip(t *testing.T) {
	orig, _ := shardedIndexMapper(t, 4)
	path := filepath.Join(t.TempDir(), "sharded.idx")
	defer fault.Reset()
	fault.Set(fault.IndexByteFlip, fault.Spec{})
	if err := orig.WriteIndexFile(path); err != nil {
		t.Fatal(err)
	}
	fault.Reset()
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
	_, _, _, err := OpenIndexFile(path, MemorySpec{Mode: MemoryHeap})
	if !errors.Is(err, ErrIndexChecksum) {
		t.Fatalf("byte-flipped sharded index error = %v, want ErrIndexChecksum", err)
	}
}
