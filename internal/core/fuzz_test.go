package core

import (
	"bytes"
	"testing"
)

// FuzzReadIndex asserts the index deserializer never panics or
// over-allocates on arbitrary bytes and that accepted indexes
// round-trip.
func FuzzReadIndex(f *testing.F) {
	m, err := NewMapper(smallParams())
	if err != nil {
		f.Fatal(err)
	}
	m.SealSharded(2, 0)
	var buf bytes.Buffer
	if err := m.WriteIndex(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()-7])
	f.Add([]byte{})
	// Retired magics stay pinned to "error, never panic".
	f.Add([]byte("JEMIDX02"))
	f.Add([]byte("JEMIDX03"))
	f.Add(bytes.Repeat([]byte{0xFF}, 128))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadIndexObserved(bytes.NewReader(data), nil)
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
	})
}
