// Package minimizer implements (w,k)-minimizer extraction (winnowing).
//
// Given a sequence s, a k-mer size k and a window size w, the
// minimizer of a window of w consecutive k-mers is the one with the
// smallest ordering value. Following the paper (§III-B.2 and the
// implementation notes), the ordering is the lexicographic order of
// the *canonical* k-mer — the smaller of the k-mer and its reverse
// complement — which equals numeric order of the 2-bit packed word.
//
// A minimizer tuple ⟨k_i, p_i⟩ is appended to the output list Mo(s,w)
// only when the minimizer changes or when the previous occurrence
// slides out of the window, exactly the dedup rule in §IV-A(c). The
// output list is sorted by position by construction.
package minimizer

import (
	"fmt"

	"repro/internal/kmer"
	"repro/internal/seq"
)

// Tuple is one minimizer occurrence: the canonical packed k-mer and the
// start position of the window-minimal k-mer on the sequence.
// FwdIsCanon records whether the forward-strand k-mer at Pos equals
// the canonical form; two sequences share an orientation at a common
// minimizer iff their FwdIsCanon flags agree, which is what lets
// seed-chaining recover relative strand from canonical sketches.
type Tuple struct {
	Kmer       kmer.Word
	Pos        int32
	FwdIsCanon bool
}

// Ordering selects how k-mers are ranked when picking the window
// minimum.
type Ordering int

const (
	// OrderLex ranks canonical k-mers lexicographically — the paper's
	// choice ("we use the lexicographically smallest k-mer as this
	// hash function", §III-B.2).
	OrderLex Ordering = iota
	// OrderHash ranks canonical k-mers by an invertible 64-bit mix of
	// their packed value, the minimap2-style choice. It avoids the
	// poly-A bias of lexicographic ordering and is exposed for the
	// ablation studies; the selected Tuple still carries the k-mer
	// itself.
	OrderHash
)

// Params bundles the winnowing parameters.
type Params struct {
	K int // k-mer size (1..kmer.MaxK)
	W int // window size, in number of consecutive k-mers (≥1)
	// Order is the ranking used to pick window minima (default
	// OrderLex, the paper's setting).
	Order Ordering
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.K <= 0 || p.K > kmer.MaxK {
		return fmt.Errorf("minimizer: k=%d out of range [1,%d]", p.K, kmer.MaxK)
	}
	if p.W <= 0 {
		return fmt.Errorf("minimizer: w=%d must be positive", p.W)
	}
	return nil
}

// entry is one k-mer of the current window. key is the ordering rank
// (the word itself under OrderLex, its mix under OrderHash).
type entry struct {
	key        uint64
	word       kmer.Word
	pos        int32
	fwdIsCanon bool
}

// stackRing is the largest window whose ring lives in AppendExtract's
// stack frame (the paper uses w=100); a larger window allocates it once
// per call.
const stackRing = 256

// mix64 is the Murmur3 finalizer, an invertible 64-bit mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// rank returns the ordering key of a canonical k-mer under p.Order.
func (p Params) rank(w kmer.Word) uint64 {
	if p.Order == OrderHash {
		return mix64(uint64(w))
	}
	return uint64(w)
}

// Extract returns the position-sorted minimizer tuple list Mo(s,w) of
// s. It never returns an error for sequences shorter than k — the list
// is simply empty. Ambiguous bases break k-mer windows but winnowing
// resumes after them.
func Extract(s []byte, p Params) []Tuple {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	est := len(s)/(p.W/2+1) + 4
	out := make([]Tuple, 0, est)
	return AppendExtract(out, s, p)
}

// AppendExtract appends the minimizers of s to dst and returns the
// extended slice, allowing callers to reuse buffers across sequences.
// Like Extract, it panics on parameters that fail Validate.
//
// One pass rolls the forward and reverse-complement words base by base
// and keeps the last w k-mers of the current ambiguity-free run in a
// ring. A new k-mer replaces the window minimum only when it ranks
// strictly lower, so ties keep the leftmost occurrence; when the
// minimum slides out of the window the ring is rescanned oldest-first
// (minimap's mm_sketch). An ambiguous base restarts the run.
//
//jem:hotpath
func AppendExtract(dst []Tuple, s []byte, p Params) []Tuple {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	var stack [stackRing]entry
	var ring []entry
	if p.W <= stackRing {
		ring = stack[:p.W]
	} else {
		ring = make([]entry, p.W)
	}
	k, w := p.K, p.W
	mask := kmer.Mask(k)
	// rcHigh[c] is the complement of base code c at the high end of the
	// reverse-complement word (a table load instead of a variable shift).
	var rcHigh [4]kmer.Word
	for c := range rcHigh {
		rcHigh[c] = kmer.Word(3-c) << (2 * uint(k-1))
	}
	var fwd, rc kmer.Word
	run := 0  // bases in the current ambiguity-free run
	slot := 0 // ring slot of the next k-mer: the oldest one once the ring is full
	minSlot, minKey := 0, uint64(0)
	lastPos := int32(-1) // position of the previously emitted tuple
	for i, b := range s {
		c, ok := seq.Code(b)
		if !ok {
			run = 0
			continue
		}
		fwd = (fwd<<2 | kmer.Word(c)) & mask
		rc = rc>>2 | rcHigh[c&3]
		run++
		if run < k {
			continue
		}
		canon := fwd
		if rc < canon {
			canon = rc
		}
		key := p.rank(canon)
		// Overwriting the minimum's slot means it just left the window;
		// a minimum from this run cannot sit in the slot before the ring
		// has wrapped once within the run.
		expired := slot == minSlot
		ring[slot] = entry{key: key, word: canon, pos: int32(i - k + 1), fwdIsCanon: fwd == canon}
		idx := run - k // index of this k-mer within its run
		switch {
		case idx == 0 || key < minKey:
			minSlot, minKey = slot, key
		case expired:
			// The ring holds exactly the window; rescan it oldest-first
			// (strict < keeps the leftmost of tied keys).
			old := slot + 1
			if old == w {
				old = 0
			}
			minSlot, minKey = old, ring[old].key
			for j := old + 1; j < w; j++ {
				if ring[j].key < minKey {
					minSlot, minKey = j, ring[j].key
				}
			}
			for j := 0; j < old; j++ {
				if ring[j].key < minKey {
					minSlot, minKey = j, ring[j].key
				}
			}
		}
		if slot++; slot == w {
			slot = 0
		}
		// Emit when the minimizer changes or re-occurs at a new position
		// (the previous one went out of bounds).
		if m := &ring[minSlot]; idx >= w-1 && m.pos != lastPos {
			dst = append(dst, Tuple{Kmer: m.word, Pos: m.pos, FwdIsCanon: m.fwdIsCanon})
			lastPos = m.pos
		}
	}
	return dst
}

// Set returns the distinct canonical minimizer k-mers of s — the
// minimizer sketch M(s,w) used by the minimizer Jaccard estimate.
func Set(s []byte, p Params) map[kmer.Word]struct{} {
	tuples := Extract(s, p)
	out := make(map[kmer.Word]struct{}, len(tuples))
	for _, t := range tuples {
		out[t.Kmer] = struct{}{}
	}
	return out
}

// Jaccard computes the minimizer Jaccard estimate J_m(a,b;w) =
// J(M(a,w), M(b,w)) from the paper. It returns 0 when both minimizer
// sets are empty.
func Jaccard(a, b []byte, p Params) float64 {
	sa := Set(a, p)
	sb := Set(b, p)
	if len(sa) == 0 && len(sb) == 0 {
		return 0
	}
	inter := 0
	small, large := sa, sb
	if len(sb) < len(sa) {
		small, large = sb, sa
	}
	for w := range small {
		if _, ok := large[w]; ok {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
	return float64(inter) / float64(union)
}
