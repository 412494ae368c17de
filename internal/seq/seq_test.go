package seq

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCode(t *testing.T) {
	cases := []struct {
		b    byte
		code byte
		ok   bool
	}{
		{'A', 0, true}, {'C', 1, true}, {'G', 2, true}, {'T', 3, true},
		{'a', 0, true}, {'c', 1, true}, {'g', 2, true}, {'t', 3, true},
		{'N', 0, false}, {'x', 0, false}, {0, 0, false}, {'-', 0, false},
	}
	for _, c := range cases {
		code, ok := Code(c.b)
		if ok != c.ok || (ok && code != c.code) {
			t.Errorf("Code(%q) = %d,%v want %d,%v", c.b, code, ok, c.code, c.ok)
		}
	}
}

func TestBaseCodeRoundTrip(t *testing.T) {
	for c := byte(0); c < 4; c++ {
		got, ok := Code(Base(c))
		if !ok || got != c {
			t.Errorf("Code(Base(%d)) = %d,%v", c, got, ok)
		}
	}
}

func TestComplement(t *testing.T) {
	pairs := map[byte]byte{'A': 'T', 'T': 'A', 'C': 'G', 'G': 'C', 'a': 't', 'g': 'c'}
	for b, want := range pairs {
		if got := Complement(b); got != want {
			t.Errorf("Complement(%q) = %q want %q", b, got, want)
		}
	}
	if got := Complement('N'); got != 'N' {
		t.Errorf("Complement(N) = %q want N", got)
	}
	if got := Complement('Z'); got != 'N' {
		t.Errorf("Complement(Z) = %q want N", got)
	}
}

func randDNA(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = Code2Base[rng.Intn(4)]
	}
	return s
}

func TestReverseComplementInvolution(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randDNA(rng, int(n))
		rc := ReverseComplement(s)
		rcrc := ReverseComplement(rc)
		return bytes.Equal(s, rcrc)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReverseComplementInPlaceMatchesCopy(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randDNA(rng, int(n))
		want := ReverseComplement(s)
		got := append([]byte(nil), s...)
		ReverseComplementInPlace(got)
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReverseComplementKnown(t *testing.T) {
	if got := ReverseComplement([]byte("ACGTT")); string(got) != "AACGT" {
		t.Errorf("got %q want AACGT", got)
	}
	if got := ReverseComplement(nil); len(got) != 0 {
		t.Errorf("revcomp(nil) = %q", got)
	}
}

func TestUpper(t *testing.T) {
	s := []byte("acgtNnACGT")
	Upper(s)
	if string(s) != "ACGTNNACGT" {
		t.Errorf("Upper = %q", s)
	}
}

func TestIsValidAndCount(t *testing.T) {
	if !IsValid([]byte("ACGTacgt")) {
		t.Error("ACGTacgt should be valid")
	}
	if IsValid([]byte("ACGNT")) {
		t.Error("ACGNT should be invalid")
	}
	if IsValid([]byte("AC GT")) {
		t.Error("spaces should be invalid")
	}
	if got := CountValid([]byte("ACNNGT")); got != 4 {
		t.Errorf("CountValid = %d want 4", got)
	}
	if !IsValid(nil) {
		t.Error("empty sequence is vacuously valid")
	}
}

func TestGC(t *testing.T) {
	cases := []struct {
		s    string
		want float64
	}{
		{"GGCC", 1}, {"AATT", 0}, {"ACGT", 0.5}, {"", 0}, {"NNNN", 0}, {"GN", 1},
	}
	for _, c := range cases {
		if got := GC([]byte(c.s)); got != c.want {
			t.Errorf("GC(%q) = %v want %v", c.s, got, c.want)
		}
	}
}

func TestTotalBases(t *testing.T) {
	recs := []Record{{Seq: []byte("ACGT")}, {Seq: []byte("AA")}, {}}
	if got := TotalBases(recs); got != 6 {
		t.Errorf("TotalBases = %d want 6", got)
	}
}
