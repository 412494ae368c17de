// Package oracle is the reference the optimized mappers are checked
// against: the paper's Alg. 1 (Sketch_byJEM) and Alg. 2 (map each end
// segment to the subject that shares the most trials) written from the
// text with plain loops and maps, and the backend matrix
// (matrix_test.go) that holds every backend to it. The reference shares
// nothing with the code under test but the k-mer codec (kmer), the
// seeded hash family (sketch.NewHashFamily) and, for a fleet with a
// shard down, the shard routing (sketch.ShardOf); core.PositionalHit is
// only the type its positional estimates are compared in. The package
// has test files only.
package oracle

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
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
// map from sketch word to the subjects whose sketch holds it, each with
// the word's anchor there, with the hash family Alg. 2 queries it under.
type reference struct {
	p     params
	hf    *sketch.HashFamily
	table []map[kmer.Word]map[int32]int32
	// lost is a shard of shards that is down, when shards > 0: the
	// probes sketch.ShardOf routes to it find nothing.
	lost, shards int
	subjects     [][]byte
}

func newReference(p params, subjects [][]byte) *reference {
	r := &reference{p: p, hf: sketch.NewHashFamily(p.t, p.seed), table: make([]map[kmer.Word]map[int32]int32, p.t), subjects: subjects}
	for t := range r.table {
		r.table[t] = map[kmer.Word]map[int32]int32{}
	}
	for id, s := range subjects {
		for t, words := range r.subjectSketch(s) {
			for _, m := range words {
				if r.table[t][m.word] == nil {
					r.table[t][m.word] = map[int32]int32{}
				}
				if _, ok := r.table[t][m.word][int32(id)]; !ok {
					r.table[t][m.word][int32(id)] = int32(m.pos)
				}
			}
		}
	}
	return r
}

// losing is r served by shards shards of which shard lost is down.
func (r *reference) losing(lost, shards int) *reference {
	d := *r
	d.lost, d.shards = lost, shards
	return &d
}

// down reports whether the probe ⟨t, w⟩ goes to the down shard.
func (r *reference) down(t int, w kmer.Word) bool {
	return r.shards > 0 && sketch.ShardOf(t, w, r.shards) == r.lost
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
// after it (positions p … p+ℓ); per trial, the sketch is the list of the
// intervals' minima by ⟨h_t, word⟩, in interval order, each at its
// rightmost position in the interval. A word's first entry is its
// anchor on the subject.
func (r *reference) subjectSketch(s []byte) [][]mini {
	mo := minimizers(s, r.p.k, r.p.w)
	sk := make([][]mini, r.p.t)
	for t := range sk {
		hs := r.under(t, mo)
		for i, anchor := range mo {
			min, at := hs[i], anchor.pos
			for j := i + 1; j < len(mo) && mo[j].pos <= anchor.pos+r.p.l; j++ {
				if !min.less(hs[j]) {
					min, at = hs[j], mo[j].pos
				}
			}
			sk[t] = append(sk[t], mini{min.word, at})
		}
	}
	return sk
}

// querySketch sketches an end segment. A segment is at most ℓ bases,
// so its minimizers form one interval: per trial the sketch word is
// their minimum by ⟨h_t, word⟩, at its leftmost position. It is nil
// when there are none.
func (r *reference) querySketch(seg []byte) []mini {
	mo := minimizers(seg, r.p.k, r.p.w)
	if len(mo) == 0 {
		return nil
	}
	words := make([]mini, r.p.t)
	for t := range words {
		hs := r.under(t, mo)
		min := 0
		for i, h := range hs {
			if h.less(hs[min]) {
				min = i
			}
		}
		words[t] = mo[min]
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
	// lost names the down shard when a probe was routed to it.
	lost []int
	// positional is where on the best hit the segment lands: see place.
	positional core.PositionalHit
}

// mapSegment is Alg. 2 for one segment: look each trial's word up,
// count per subject the trials that list it, and answer with the most
// frequent subject, ties going to the lower id. A probe routed to a
// down shard is skipped.
func (r *reference) mapSegment(seg []byte) answer {
	counts := map[int32]int32{}
	a := answer{subject: -1}
	q := r.querySketch(seg)
	for t, m := range q {
		if r.down(t, m.word) {
			a.lost = []int{r.lost}
			continue
		}
		for subject := range r.table[t][m.word] {
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
	a.positional = r.place(a, q, len(seg))
	return a
}

// place is the positional extension's estimate for an answer: every
// trial whose word the best subject holds (on a shard that is up) votes
// with the offset anchor − query position for the forward strand and
// anchor + query position for the reverse one. Per strand, the median
// vote gets the votes within w+k of it; the reverse strand wins only
// with more. The region is the segment's length from the estimated
// start, clamped to the subject.
func (r *reference) place(a answer, q []mini, n int) core.PositionalHit {
	ph := core.PositionalHit{Hit: core.Hit{Subject: a.subject, Count: a.count}, TargetStart: -1}
	var fwd, rev []int32
	for t, m := range q {
		if anchor, ok := r.table[t][m.word][a.subject]; ok && !r.down(t, m.word) {
			fwd, rev = append(fwd, anchor-int32(m.pos)), append(rev, anchor+int32(m.pos))
		}
	}
	if len(fwd) == 0 {
		return ph
	}
	start, fVotes := r.cluster(fwd)
	if rMed, rVotes := r.cluster(rev); rVotes > fVotes {
		ph.Reverse, start = true, rMed-int32(n-r.p.k)
	}
	ph.TargetStart = max(start, 0)
	ph.TargetEnd = min(ph.TargetStart+int32(n), int32(len(r.subjects[a.subject])))
	return ph
}

// cluster returns the median of votes and how many lie within w+k of it.
func (r *reference) cluster(votes []int32) (median int32, near int) {
	sort.Slice(votes, func(i, j int) bool { return votes[i] < votes[j] })
	median = votes[len(votes)/2]
	for _, v := range votes {
		if v >= median-int32(r.p.w+r.p.k) && v <= median+int32(r.p.w+r.p.k) {
			near++
		}
	}
	return median, near
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
