// Package kmer implements compact k-mer encoding and iteration.
//
// A k-mer (k ≤ 31) is packed into a uint64 with 2 bits per base using
// the a=0, c=1, g=2, t=3 code, most significant base first. With that
// ordering, numeric comparison of packed values is identical to
// lexicographic comparison of the corresponding strings — the property
// the minimizer and sketch layers depend on (the paper uses the
// lexicographically smallest k-mer as its minimizer ordering).
//
// The canonical form of a k-mer is the smaller of the k-mer and its
// reverse complement; the canonical rank doubles as the integer x fed
// to the sketch hash family h_t(x) = (A_t·x + B_t) mod P_t.
package kmer

import (
	"fmt"
	"math/bits"

	"repro/internal/seq"
)

// MaxK is the largest supported k-mer size (2 bits per base in a uint64,
// one spare pair kept so that window arithmetic cannot overflow).
const MaxK = 31

// Word is a packed k-mer.
type Word uint64

// Encode packs s[:k] into a Word. It returns ok=false when s is shorter
// than k or contains a non-ACGT base.
func Encode(s []byte, k int) (Word, bool) {
	if k <= 0 || k > MaxK || len(s) < k {
		return 0, false
	}
	var w Word
	for i := 0; i < k; i++ {
		c, ok := seq.Code(s[i])
		if !ok {
			return 0, false
		}
		w = w<<2 | Word(c)
	}
	return w, true
}

// Decode expands w back into its k-base string.
func Decode(w Word, k int) []byte {
	out := make([]byte, k)
	for i := k - 1; i >= 0; i-- {
		out[i] = seq.Base(byte(w & 3))
		w >>= 2
	}
	return out
}

// String renders w as a k-base string for diagnostics.
func (w Word) String() string { return fmt.Sprintf("%d", uint64(w)) }

// ReverseComplement returns the reverse complement of a packed k-mer.
func ReverseComplement(w Word, k int) Word {
	// Complement: a<->t (0<->3), c<->g (1<->2) is bitwise NOT on 2-bit
	// codes. Then reverse the 2-bit groups.
	v := uint64(^w)
	v = bits.ReverseBytes64(v)
	// Swap 2-bit pairs within each byte: abcd efgh -> ghef cdab per
	// 2-bit group. Reverse within bytes using masks.
	v = (v&0x3333333333333333)<<2 | (v>>2)&0x3333333333333333
	v = (v&0x0F0F0F0F0F0F0F0F)<<4 | (v>>4)&0x0F0F0F0F0F0F0F0F
	return Word(v >> (64 - 2*uint(k)))
}

// Canonical returns the canonical form of w: min(w, revcomp(w)).
func Canonical(w Word, k int) Word {
	rc := ReverseComplement(w, k)
	if rc < w {
		return rc
	}
	return w
}

// Mask returns the 2k-bit mask for k-mers of size k.
func Mask(k int) Word { return Word(1)<<(2*uint(k)) - 1 }

// Iterator produces successive packed k-mers of a sequence with O(1)
// work per base (rolling update), skipping over windows that contain
// ambiguous bases.
type Iterator struct {
	s    []byte
	k    int
	mask Word
	pos  int  // index of the NEXT base to consume
	have int  // number of valid bases currently accumulated (≤ k)
	fwd  Word // forward strand rolling word
	rc   Word // reverse complement rolling word
}

// NewIterator constructs an iterator over s with k-mer size k.
// k must be in [1, MaxK].
func NewIterator(s []byte, k int) *Iterator {
	if k <= 0 || k > MaxK {
		panic(fmt.Sprintf("kmer: k=%d out of range [1,%d]", k, MaxK))
	}
	return &Iterator{s: s, k: k, mask: Mask(k)}
}

// Next advances to the next k-mer. It returns the forward-strand word,
// its canonical form, the start position of the k-mer in the sequence,
// and ok=false when the sequence is exhausted.
func (it *Iterator) Next() (fwd, canon Word, pos int, ok bool) {
	for it.pos < len(it.s) {
		c, valid := seq.Code(it.s[it.pos])
		it.pos++
		if !valid {
			it.have = 0
			continue
		}
		it.fwd = (it.fwd<<2 | Word(c)) & it.mask
		// Prepend complement at the high end of the rc word.
		it.rc = it.rc>>2 | Word(3-c)<<(2*uint(it.k-1))
		if it.have < it.k {
			it.have++
		}
		if it.have == it.k {
			canon := it.fwd
			if it.rc < canon {
				canon = it.rc
			}
			return it.fwd, canon, it.pos - it.k, true
		}
	}
	return 0, 0, 0, false
}

// Set collects the distinct canonical k-mers of s.
func Set(s []byte, k int) map[Word]struct{} {
	out := make(map[Word]struct{}, len(s))
	it := NewIterator(s, k)
	for {
		_, canon, _, ok := it.Next()
		if !ok {
			return out
		}
		out[canon] = struct{}{}
	}
}
