package kmer

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/seq"
)

func randDNA(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = seq.Code2Base[rng.Intn(4)]
	}
	return s
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		k := 1 + int(kRaw)%MaxK
		rng := rand.New(rand.NewSource(seed))
		s := randDNA(rng, k)
		w, ok := Encode(s, k)
		if !ok {
			return false
		}
		return bytes.Equal(Decode(w, k), s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeRejects(t *testing.T) {
	if _, ok := Encode([]byte("ACG"), 4); ok {
		t.Error("short input should fail")
	}
	if _, ok := Encode([]byte("ACNG"), 4); ok {
		t.Error("ambiguous base should fail")
	}
	if _, ok := Encode([]byte("ACGT"), 0); ok {
		t.Error("k=0 should fail")
	}
	if _, ok := Encode(bytes.Repeat([]byte("A"), 40), 32); ok {
		t.Error("k>MaxK should fail")
	}
}

func TestEncodeLexicographicOrder(t *testing.T) {
	// Numeric order of packed words must equal lexicographic order of
	// strings — the property the minimizer ordering relies on.
	rng := rand.New(rand.NewSource(7))
	const k = 9
	for i := 0; i < 1000; i++ {
		a := randDNA(rng, k)
		b := randDNA(rng, k)
		wa, _ := Encode(a, k)
		wb, _ := Encode(b, k)
		if (wa < wb) != (bytes.Compare(a, b) < 0) || (wa == wb) != bytes.Equal(a, b) {
			t.Fatalf("order mismatch: %q (%d) vs %q (%d)", a, wa, b, wb)
		}
	}
}

func TestReverseComplementMatchesString(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		k := 1 + int(kRaw)%MaxK
		rng := rand.New(rand.NewSource(seed))
		s := randDNA(rng, k)
		w, _ := Encode(s, k)
		want, _ := Encode(seq.ReverseComplement(s), k)
		return ReverseComplement(w, k) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReverseComplementInvolution(t *testing.T) {
	f := func(w uint64, kRaw uint8) bool {
		k := 1 + int(kRaw)%MaxK
		x := Word(w) & Mask(k)
		return ReverseComplement(ReverseComplement(x, k), k) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCanonicalSymmetry(t *testing.T) {
	// canonical(w) == canonical(revcomp(w)), and canonical is one of the two.
	f := func(w uint64, kRaw uint8) bool {
		k := 1 + int(kRaw)%MaxK
		x := Word(w) & Mask(k)
		rc := ReverseComplement(x, k)
		c := Canonical(x, k)
		return c == Canonical(rc, k) && (c == x || c == rc) && c <= x && c <= rc
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIteratorMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(12)
		n := rng.Intn(200)
		s := randDNA(rng, n)
		// Sprinkle ambiguity.
		for i := range s {
			if rng.Intn(20) == 0 {
				s[i] = 'N'
			}
		}
		it := NewIterator(s, k)
		var got []struct {
			fwd, canon Word
			pos        int
		}
		for {
			fwd, canon, pos, ok := it.Next()
			if !ok {
				break
			}
			got = append(got, struct {
				fwd, canon Word
				pos        int
			}{fwd, canon, pos})
		}
		var want []struct {
			fwd, canon Word
			pos        int
		}
		for i := 0; i+k <= len(s); i++ {
			w, ok := Encode(s[i:i+k], k)
			if !ok {
				continue
			}
			want = append(want, struct {
				fwd, canon Word
				pos        int
			}{w, Canonical(w, k), i})
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d: got %d k-mers want %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("k=%d idx=%d: got %+v want %+v", k, i, got[i], want[i])
			}
		}
	}
}

func TestIteratorPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for k=0")
		}
	}()
	NewIterator([]byte("ACGT"), 0)
}

func TestSetCanonicalizes(t *testing.T) {
	s := []byte("ACGTAC")
	rc := seq.ReverseComplement(s)
	a := Set(s, 4)
	b := Set(rc, 4)
	if len(a) != len(b) {
		t.Fatalf("set sizes differ: %d vs %d", len(a), len(b))
	}
	for w := range a {
		if _, ok := b[w]; !ok {
			t.Fatalf("word %d missing from revcomp set", w)
		}
	}
}
