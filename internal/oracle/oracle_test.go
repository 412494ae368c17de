// Package oracle is the reference the optimized mappers are checked
// against: the paper's Alg. 1 (Sketch_byJEM) and Alg. 2 (map each end
// segment to the subject that shares the most trials) written from the
// text with plain loops and maps, and the backend matrix
// (matrix_test.go) that holds every backend to it. The reference shares
// nothing with the code under test but the k-mer codec (kmer) and the
// seeded hash family (sketch.NewHashFamily). The package has test files
// only.
package oracle

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/kmer"
	"repro/internal/sketch"
)

// params are the paper's sketch parameters: k-mer size k, minimizer
// window w (in k-mers), trials T, interval and end-segment length ℓ,
// and the seed of the hash family h_1 … h_T.
type params struct {
	k, w, t, l int
	seed       int64
}

// mini is one entry of the minimizer list Mo(s, w): a canonical k-mer
// and the position it starts at.
type mini struct {
	word kmer.Word
	pos  int
}

// minimizers returns Mo(s, w) by brute force. Each maximal run of
// A/C/G/T (either case) is winnowed on its own: every window of w
// consecutive k-mers contributes its smallest canonical k-mer (the
// leftmost of equals), listed unless it is the entry listed last.
func minimizers(s []byte, k, w int) []mini {
	var out []mini
	for start := 0; start < len(s); {
		end := start
		for end < len(s) && strings.IndexByte("ACGTacgt", s[end]) >= 0 {
			end++
		}
		var kmers []mini
		for i := start; i+k <= end; i++ {
			fwd, _ := kmer.Encode(s[i:i+k], k)
			kmers = append(kmers, mini{kmer.Canonical(fwd, k), i})
		}
		for i := 0; i+w <= len(kmers); i++ {
			best := kmers[i]
			for _, c := range kmers[i+1 : i+w] {
				if c.word < best.word {
					best = c
				}
			}
			if len(out) == 0 || out[len(out)-1].pos != best.pos {
				out = append(out, best)
			}
		}
		start = end + 1
	}
	return out
}

// reference is Alg. 1's sketch table over a subject set, per trial a
// map from sketch word to the set of subjects whose sketch holds it,
// with the hash family Alg. 2 queries it under.
type reference struct {
	p     params
	hf    *sketch.HashFamily
	table []map[kmer.Word]map[int32]bool
}

func newReference(p params, subjects [][]byte) *reference {
	r := &reference{p: p, hf: sketch.NewHashFamily(p.t, p.seed), table: make([]map[kmer.Word]map[int32]bool, p.t)}
	for t := range r.table {
		r.table[t] = map[kmer.Word]map[int32]bool{}
	}
	for id, s := range subjects {
		for t, words := range r.subjectSketch(s) {
			for w := range words {
				if r.table[t][w] == nil {
					r.table[t][w] = map[int32]bool{}
				}
				r.table[t][w][int32(id)] = true
			}
		}
	}
	return r
}

// entries is the table's size: one entry per ⟨trial, word, subject⟩.
func (r *reference) entries() int {
	n := 0
	for _, words := range r.table {
		for _, subjects := range words {
			n += len(subjects)
		}
	}
	return n
}

// hashed is a minimizer under trial t's order: ⟨h_t(word), word⟩.
type hashed struct {
	h    uint64
	word kmer.Word
}

func (a hashed) less(b hashed) bool { return a.h < b.h || (a.h == b.h && a.word < b.word) }

// under returns mo's words under trial t's order.
func (r *reference) under(t int, mo []mini) []hashed {
	out := make([]hashed, len(mo))
	for i, m := range mo {
		out[i] = hashed{r.hf.Hash(t, m.word), m.word}
	}
	return out
}

// subjectSketch is Alg. 1 for one subject. An interval is anchored at
// every minimizer and holds the minimizers that start at most ℓ bases
// after it (positions p … p+ℓ); per trial, the sketch is the set of the
// intervals' minima by ⟨h_t, word⟩.
func (r *reference) subjectSketch(s []byte) []map[kmer.Word]bool {
	mo := minimizers(s, r.p.k, r.p.w)
	sk := make([]map[kmer.Word]bool, r.p.t)
	for t := range sk {
		sk[t] = map[kmer.Word]bool{}
		hs := r.under(t, mo)
		for i, anchor := range mo {
			min := hs[i]
			for j := i + 1; j < len(mo) && mo[j].pos <= anchor.pos+r.p.l; j++ {
				if hs[j].less(min) {
					min = hs[j]
				}
			}
			sk[t][min.word] = true
		}
	}
	return sk
}

// querySketch sketches an end segment. A segment is at most ℓ bases,
// so its minimizers form one interval: per trial the sketch word is
// their minimum by ⟨h_t, word⟩. It is nil when there are none.
func (r *reference) querySketch(seg []byte) []kmer.Word {
	mo := minimizers(seg, r.p.k, r.p.w)
	if len(mo) == 0 {
		return nil
	}
	words := make([]kmer.Word, r.p.t)
	for t := range words {
		hs := r.under(t, mo)
		min := hs[0]
		for _, h := range hs[1:] {
			if h.less(min) {
				min = h
			}
		}
		words[t] = min.word
	}
	return words
}

// hit is a subject and the number of trials whose sketch word it
// shares with the segment.
type hit struct {
	subject, count int32
}

// answer is the reference's answer for one end segment.
type answer struct {
	// subject is the best hit, -1 when the segment is unmapped; count
	// is its trial count.
	subject, count int32
	// postings is the number of table entries Alg. 2 examines: the
	// subjects listed under each trial's word, summed over trials.
	postings int64
	// ranking is every subject hit, by descending count, ties toward
	// the lower id.
	ranking []hit
}

// mapSegment is Alg. 2 for one segment: look each trial's word up,
// count per subject the trials that list it, and answer with the most
// frequent subject, ties going to the lower id.
func (r *reference) mapSegment(seg []byte) answer {
	counts := map[int32]int32{}
	a := answer{subject: -1}
	for t, w := range r.querySketch(seg) {
		for subject := range r.table[t][w] {
			counts[subject]++
			a.postings++
		}
	}
	for subject, c := range counts {
		a.ranking = append(a.ranking, hit{subject, c})
	}
	sort.Slice(a.ranking, func(i, j int) bool {
		x, y := a.ranking[i], a.ranking[j]
		return x.count > y.count || (x.count == y.count && x.subject < y.subject)
	})
	if len(a.ranking) > 0 {
		a.subject, a.count = a.ranking[0].subject, a.ranking[0].count
	}
	return a
}

// segment is one end segment of a read.
type segment struct {
	read   int
	suffix bool
	seq    []byte
}

// ends splits reads into the end segments Alg. 2 maps: the first and
// the last ℓ bases of each read, or the whole read, as its prefix, when
// it is no longer than ℓ.
func ends(reads [][]byte, l int) []segment {
	var out []segment
	for i, s := range reads {
		if len(s) <= l {
			out = append(out, segment{i, false, s})
			continue
		}
		out = append(out, segment{i, false, s[:l]}, segment{i, true, s[len(s)-l:]})
	}
	return out
}

// TestReferenceBasics pins the reference's own edge cases, so a
// matrix failure implicates the backend under test, not the oracle.
func TestReferenceBasics(t *testing.T) {
	// Canonical 3-mers of ACGTACG: ACG ACG GTA GTA ACG; the four windows
	// of two list positions 0, 1, 2 and 4. The N ends the run, and the
	// run after it, shorter than k+w−1 bases, yields nothing.
	if got := minimizers([]byte("ACGTACGNACG"), 3, 2); len(got) != 4 || got[3] != (mini{got[0].word, 4}) {
		t.Errorf("minimizers = %v", got)
	}
	if got := minimizers([]byte("ACGTA"), 3, 4); got != nil {
		t.Errorf("a 5-base run has no 3-mer window of 4: %v", got)
	}
	// A homopolymer's windows all tie; each window lists its leftmost
	// k-mer, so every window start is listed once.
	if got := minimizers([]byte("AAAAAAA"), 3, 2); len(got) != 4 {
		t.Errorf("homopolymer minimizers = %v", got)
	}
	p := params{k: 3, w: 2, t: 4, l: 10, seed: 1}
	r := newReference(p, [][]byte{[]byte("ACGTTGCAAC"), []byte("ACGTTGCAAC"), []byte("NNNN")})
	a := r.mapSegment([]byte("ACGTTGCAAC"))
	if a.subject != 0 || a.count != 4 || len(a.ranking) != 2 || a.ranking[1] != (hit{1, 4}) || a.postings != 8 {
		t.Errorf("duplicate subjects must tie toward id 0: %+v", a)
	}
	if a := r.mapSegment([]byte("NNNNNN")); a.subject != -1 || a.postings != 0 || a.ranking != nil {
		t.Errorf("an all-N segment maps to nothing: %+v", a)
	}
	if got := ends([][]byte{[]byte("ACGTACGTAC"), []byte("ACGTACGTACG")}, 10); len(got) != 3 || got[2].suffix != true || string(got[2].seq) != "CGTACGTACG" {
		t.Errorf("ends = %+v", got)
	}
}
