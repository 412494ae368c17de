package sketch

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// FuzzViewFlatFrozen holds the flat-payload view — the bytes of an
// index file, possibly mmap'd — to "error, never panic, allocation
// bounded by len(buf)": it must reject or serve any input, and a table
// it serves must survive a probe of every word it claims to hold. The
// seeds are builder-made payloads and mutilations of them.
func FuzzViewFlatFrozen(f *testing.F) {
	good := frozenOf(f, 2, appendCall{subject: 1, words: [][]Word{{5}, {6, 7}}, anchors: [][]int32{{10}, {20, 30}}}).Payload()
	f.Add(good)
	// A directory whose first section offset wraps u64 when the section
	// length is added: it used to pass the bounds check and index out
	// of range.
	wrap := bytes.Clone(good)
	binary.LittleEndian.PutUint32(wrap[4:], 1)          // nwords
	binary.LittleEndian.PutUint64(wrap[4+16:], 1<<64-8) // wordsOff
	f.Add(wrap)
	f.Add(good[:len(good)-3])
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Add([]byte{})
	f.Add(freezeSketches(f, 3, shardTestSketches(3, 5, 12), 2, 2, 1).Shard(1).Payload())
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		view, err := ViewFlatFrozen(data, false)
		runtime.ReadMemStats(&after)
		// Directory and table headers cost a small multiple of the
		// payload's own directory, an unaligned input one copy of
		// itself; nothing may scale with a count the payload merely
		// claims.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16*uint64(len(data))+1<<16 {
			t.Fatalf("viewing %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		// A payload can pass validation with a bucket directory that
		// misses some of its words (only a checksum guards content); what
		// it may not do is panic on a probe.
		for tr := range view.trials {
			for _, w := range view.trials[tr].words {
				view.Lookup(tr, w)
			}
			view.Lookup(tr, ^Word(0))
			view.Lookup(tr, 0)
		}
		again, err := ViewFlatFrozen(bytes.Clone(view.Payload()), true)
		if err != nil {
			t.Fatalf("an accepted payload was rejected the second time: %v", err)
		}
		if again.T() != view.T() || again.Entries() != view.Entries() {
			t.Fatalf("unstable view: %d/%d vs %d/%d", again.T(), again.Entries(), view.T(), view.Entries())
		}
	})
}

// FuzzQuerySketch asserts query sketching never panics on arbitrary
// segments. The corpus seeds cover the pathological shapes around the
// former querySketchTuples sentinel bug: homopolymer runs whose packed
// k-mers sit at the extremes of the word space (all-A canonical 0,
// poly-T canonicalizing onto it) where hash/word ties concentrate.
func FuzzQuerySketch(f *testing.F) {
	f.Add([]byte("ACGTACGTACGTACGTACGTACGT"))
	f.Add(bytes.Repeat([]byte{'T'}, 64)) // max packed word pre-canonicalization
	f.Add(bytes.Repeat([]byte{'A'}, 64)) // min packed word
	f.Add(bytes.Repeat([]byte{'G'}, 12))
	f.Add([]byte("NNNNNNNNNNNN"))
	f.Add([]byte{})
	sk, err := NewSketcher(Params{K: 8, W: 4, T: 4, L: 200, Seed: 7})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, segment []byte) {
		words, pos := querySketch(sk, segment)
		if (words == nil) != (pos == nil) {
			t.Fatal("words/pos nilness differs")
		}
		if words != nil && (len(words) != sk.Params().T || len(pos) != sk.Params().T) {
			t.Fatalf("got %d words / %d positions, want %d", len(words), len(pos), sk.Params().T)
		}
	})
}

// FuzzAppendSubject holds AppendSubject's records, positional and not,
// to the naive Alg. 1 on arbitrary bytes, under the seeded hash family
// and a degenerate one. Input is capped at 2 KiB: the naive sketch
// costs O(tuples · interval · T).
func FuzzAppendSubject(f *testing.F) {
	f.Add([]byte("ACGTACGTACGTACGTACGTACGT"))
	f.Add(bytes.Repeat([]byte("ACGGTCA"), 40))
	f.Add(bytes.Repeat([]byte{'A'}, 300))
	f.Add([]byte("acgtNNNNacgtTTGACCAGTnnACGTTGCA"))
	f.Add([]byte{})
	sk, err := NewSketcher(Params{K: 6, W: 3, T: 4, L: 60, Seed: 7})
	if err != nil {
		f.Fatal(err)
	}
	flat := degenerate(sk)
	f.Fuzz(func(t *testing.T, data []byte) {
		data = data[:min(len(data), 2048)]
		checkSubjectSketch(t, sk, data)
		checkSubjectSketch(t, flat, data)
	})
}

// FuzzDecodeTable decodes arbitrary bytes into a table twice — as a
// stream of appends through the builder, and as the same inserts into
// the map-based reference — and requires the two to hold the same
// lists at P ∈ {1, 3}, with the list invariant intact. (The name is
// from the byte decoder of the per-rank payload format this target
// used to fuzz; that format and its trust boundary are gone, the
// corpus stays as input.) Every 4 bytes are one posting: a subject
// step, a trial, a word from a small alphabet so lists collide, and
// an anchor.
func FuzzDecodeTable(f *testing.F) {
	f.Add([]byte{0, 0, 5, 10, 0, 1, 6, 20, 0, 1, 7, 30, 1, 0, 5, 40})
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	const trials = 3
	f.Fuzz(func(t *testing.T, data []byte) {
		var sketches []subjectSketch
		for ; len(data) >= 4; data = data[4:] {
			if len(sketches) == 0 || data[0]%4 == 0 {
				sketches = append(sketches, subjectSketch{words: make([][]Word, trials), anchors: make([][]int32, trials)})
			}
			s, tr := &sketches[len(sketches)-1], int(data[1])%trials
			s.words[tr] = append(s.words[tr], Word(data[2]%16)<<56|Word(data[2]/16))
			s.anchors[tr] = append(s.anchors[tr], int32(data[3]))
		}
		ref := referenceOf(trials, sketches)
		for _, shards := range []int{1, 3} {
			sf := freezeSketches(t, trials, sketches, 2, shards, 1)
			assertEqualsReference(t, "fuzzed appends", sf, ref)
			assertListInvariant(t, "fuzzed appends", sf)
		}
	})
}
