package sketch

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"
)

// FuzzViewFlatFrozen holds the flat-payload readers — the bytes of an
// index file, possibly mmap'd — to "error, never panic, allocation
// bounded by len(buf)": both the zero-copy view and the copying
// fallback must reject or serve any input, agree with each other, and
// survive a probe of every word they claim to hold.
func FuzzViewFlatFrozen(f *testing.F) {
	tb := NewTable(2)
	tb.InsertPositional(1, [][]Word{{5}, {6, 7}}, [][]int32{{10}, {20, 30}})
	good := tb.Freeze().EncodeFlat()
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
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		view, verr := ViewFlatFrozen(data, false)
		dec, derr := DecodeFlatFrozen(data)
		runtime.ReadMemStats(&after)
		// Directory and table headers cost a small multiple of the
		// payload's own directory; nothing may scale with a count the
		// payload merely claims.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16*uint64(len(data))+1<<16 {
			t.Fatalf("reading %d bytes allocated %d", len(data), grew)
		}
		if (verr == nil) != (derr == nil) {
			t.Fatalf("view error %v, decode error %v", verr, derr)
		}
		if verr != nil {
			return
		}
		if view.T() != dec.T() || view.Entries() != dec.Entries() {
			t.Fatalf("view %d/%d, decode %d/%d", view.T(), view.Entries(), dec.T(), dec.Entries())
		}
		for tr := range dec.trials {
			for _, w := range dec.trials[tr].words {
				if !reflect.DeepEqual(view.Lookup(tr, w), dec.Lookup(tr, w)) {
					t.Fatalf("trial %d word %d: view and decode disagree", tr, w)
				}
			}
			view.Lookup(tr, ^Word(0))
		}
		again, err := ViewFlatFrozen(dec.EncodeFlat(), false)
		if err != nil {
			t.Fatalf("re-encoding of an accepted payload rejected: %v", err)
		}
		if again.T() != dec.T() || again.Entries() != dec.Entries() {
			t.Fatalf("unstable round trip: %d/%d vs %d/%d", again.T(), again.Entries(), dec.T(), dec.Entries())
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
		words, pos := sk.QuerySketchPositional(segment)
		if (words == nil) != (pos == nil) {
			t.Fatal("words/pos nilness differs")
		}
		if words != nil && (len(words) != sk.Params().T || len(pos) != sk.Params().T) {
			t.Fatalf("got %d words / %d positions, want %d", len(words), len(pos), sk.Params().T)
		}
	})
}

// FuzzDecodeTable asserts the binary decoder never panics on arbitrary
// bytes and that every accepted table re-encodes to a decodable form.
func FuzzDecodeTable(f *testing.F) {
	// Seed with a real encoding.
	tb := NewTable(2)
	tb.InsertPositional(1, [][]Word{{5}, {6, 7}}, [][]int32{{10}, {20, 30}})
	var buf bytes.Buffer
	if err := tb.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeTable(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := got.Encode(&out); err != nil {
			t.Fatalf("re-encode of accepted table failed: %v", err)
		}
		if out.Len() != got.EncodedSize() {
			t.Fatalf("EncodedSize %d != re-encoded %d", got.EncodedSize(), out.Len())
		}
		again, err := DecodeTable(&out)
		if err != nil {
			t.Fatalf("decode of re-encoding failed: %v", err)
		}
		if again.Entries() != got.Entries() || again.T() != got.T() {
			t.Fatalf("unstable round trip: %d/%d vs %d/%d",
				again.Entries(), again.T(), got.Entries(), got.T())
		}
	})
}
