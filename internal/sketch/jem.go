package sketch

import (
	"fmt"

	"repro/internal/kmer"
	"repro/internal/minimizer"
)

// Word is the packed-k-mer type sketches are made of, re-exported so
// callers of this package do not need to import kmer directly.
type Word = kmer.Word

// Params configures the JEM sketcher. The defaults mirror the paper's
// software configuration (§IV-A): k=16, w=100, T=30, ℓ=1000.
type Params struct {
	K    int   // k-mer size
	W    int   // minimizer window size (in k-mers)
	T    int   // number of random trials / hash functions
	L    int   // interval and end-segment length ℓ, in bases
	Seed int64 // RNG seed for the hash family
	// Order is the minimizer ordering (default minimizer.OrderLex,
	// the paper's lexicographic choice; OrderHash is exposed for
	// ablation).
	Order minimizer.Ordering
}

// Defaults returns the paper's default parameters.
func Defaults() Params {
	return Params{K: 16, W: 100, T: 30, L: 1000, Seed: 1}
}

// Validate checks parameter sanity. Upper bounds exist so that
// parameters deserialized from an untrusted index file cannot drive
// unbounded allocations: T sizes the hash family and every sketch
// (the paper uses ≤ 150), and W/L only make sense at genomic scales.
func (p Params) Validate() error {
	if err := (minimizer.Params{K: p.K, W: p.W}).Validate(); err != nil {
		return err
	}
	if p.T <= 0 || p.T > 1<<16 {
		return fmt.Errorf("sketch: T=%d out of range [1,%d]", p.T, 1<<16)
	}
	if p.W > 1<<26 {
		return fmt.Errorf("sketch: w=%d implausibly large", p.W)
	}
	if p.L < p.K || p.L > 1<<30 {
		return fmt.Errorf("sketch: interval length l=%d out of range [k=%d,2^30]", p.L, p.K)
	}
	if p.Order != minimizer.OrderLex && p.Order != minimizer.OrderHash {
		return fmt.Errorf("sketch: unknown minimizer ordering %d", p.Order)
	}
	return nil
}

// Sketcher turns sequences into JEM sketches. It is safe for
// concurrent use: all state is immutable after construction except the
// scratch buffers, which live in per-call stack frames.
type Sketcher struct {
	p  Params
	mp minimizer.Params
	hf *HashFamily
}

// NewSketcher builds a Sketcher, generating the T-hash family from
// p.Seed.
func NewSketcher(p Params) (*Sketcher, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Sketcher{
		p:  p,
		mp: minimizer.Params{K: p.K, W: p.W, Order: p.Order},
		hf: NewHashFamily(p.T, p.Seed),
	}, nil
}

// Params returns the sketcher's configuration.
func (s *Sketcher) Params() Params { return s.p }

// SubjectSketch implements Algorithm 1 (Sketch_byJEM) for a subject
// sequence: it slides an interval of ℓ bases over the position-sorted
// minimizer list Mo(s,w) — one interval anchored at each minimizer —
// and for every trial t records the k-mer minimizing h_t within the
// interval. The result is one slice of sketch words per trial, each
// free of consecutive duplicates (and, by the contiguity of a
// minimizer's reign as interval minimum, free of duplicates entirely
// for a fixed originating position).
//
// The per-trial sliding minimum is computed with a monotone deque, so
// the whole sketch costs O(|Mo|·T) instead of the naive
// O(|Mo|·T·interval) — this is the "efficient implementation" the
// paper's complexity analysis assumes.
func (s *Sketcher) SubjectSketch(sequence []byte) [][]kmer.Word {
	words, _ := s.sketchTuples(minimizer.Extract(sequence, s.mp))
	return words
}

// SubjectSketchPositional is SubjectSketch plus, per emitted word, the
// position of the interval anchor (the minimizer at which the word
// first became the interval minimum). The two return values are
// parallel per trial.
func (s *Sketcher) SubjectSketchPositional(sequence []byte) (words [][]kmer.Word, anchors [][]int32) {
	return s.sketchTuples(minimizer.Extract(sequence, s.mp))
}

// SubjectSketchTuples is SubjectSketch for a caller that already has
// the minimizer list (avoids re-extraction in pipelines that need both).
func (s *Sketcher) SubjectSketchTuples(tuples []minimizer.Tuple) [][]kmer.Word {
	words, _ := s.sketchTuples(tuples)
	return words
}

type hentry struct {
	h   uint64
	w   kmer.Word
	idx int
}

func less(a, b hentry) bool {
	if a.h != b.h {
		return a.h < b.h
	}
	return a.w < b.w
}

// sketchTuples is the shared subject-sketch inner loop: per trial, a
// monotone-deque sliding minimum over the interval windows.
//
//jem:hotpath
func (s *Sketcher) sketchTuples(tuples []minimizer.Tuple) ([][]kmer.Word, [][]int32) {
	out := make([][]kmer.Word, s.p.T)
	anchors := make([][]int32, s.p.T)
	if len(tuples) == 0 {
		return out, anchors
	}
	n := len(tuples)
	// end[i] = one past the last tuple with Pos <= Pos[i] + L.
	end := make([]int, n)
	j := 0
	for i := 0; i < n; i++ {
		if j < i {
			j = i
		}
		limit := tuples[i].Pos + int32(s.p.L)
		for j < n && tuples[j].Pos <= limit {
			j++
		}
		end[i] = j
	}

	hashes := make([]uint64, n)
	var deque []hentry
	for t := 0; t < s.p.T; t++ {
		for i, tp := range tuples {
			hashes[i] = s.hf.Hash(t, tp.Kmer)
		}
		deque = deque[:0]
		head := 0
		filled := 0 // tuples pushed so far
		var last kmer.Word
		haveLast := false
		for i := 0; i < n; i++ {
			// Extend the window to end[i].
			for ; filled < end[i]; filled++ {
				e := hentry{h: hashes[filled], w: tuples[filled].Kmer, idx: filled}
				for len(deque) > head && !less(deque[len(deque)-1], e) {
					deque = deque[:len(deque)-1]
				}
				deque = append(deque, e)
			}
			// Drop candidates before the window start i.
			for head < len(deque) && deque[head].idx < i {
				head++
			}
			if head > 64 && head*2 > len(deque) {
				m := copy(deque, deque[head:])
				deque = deque[:m]
				head = 0
			}
			min := deque[head].w
			if !haveLast || min != last {
				out[t] = append(out[t], min)
				// Anchor the sketch word at its own minimizer
				// position (not the interval start): position votes
				// against the query-side word position then localize
				// the mapping directly.
				anchors[t] = append(anchors[t], tuples[deque[head].idx].Pos)
				last, haveLast = min, true
			}
		}
	}
	return out, anchors
}

// Query is reusable query-sketch scratch: a segment's minimizers and,
// per trial, the selected sketch word and its position on the segment.
// Reusing one Query across segments makes SketchQuery allocation-free
// once its buffers have grown; the zero value is ready to use.
type Query struct {
	Tuples []minimizer.Tuple
	Words  []kmer.Word
	Pos    []int32
}

// SketchQuery sketches a query end segment into q, replacing its
// contents. A query is at most ℓ bases long, so its minimizer list
// forms a single interval: the sketch is exactly one word per trial —
// the k-mer minimizing h_t over all query minimizers — and q.Pos holds
// each word's position on the segment. q.Words is empty when the
// segment yields no minimizers (e.g. shorter than k+w-1 bases or
// all-ambiguous).
func (s *Sketcher) SketchQuery(q *Query, segment []byte) {
	q.Tuples = minimizer.AppendExtract(q.Tuples[:0], segment, s.mp)
	s.querySketchTuples(q)
}

// QuerySketch is SketchQuery into fresh buffers, returning the words
// alone; it returns nil when the segment yields no minimizers.
func (s *Sketcher) QuerySketch(segment []byte) []kmer.Word {
	words, _ := s.QuerySketchPositional(segment)
	return words
}

// QuerySketchTuples is QuerySketch over a pre-extracted minimizer list.
func (s *Sketcher) QuerySketchTuples(tuples []minimizer.Tuple) []kmer.Word {
	q := Query{Tuples: tuples}
	s.querySketchTuples(&q)
	return q.Words
}

// QuerySketchPositional is QuerySketch plus, per trial, the position
// on the segment of the selected sketch k-mer. Positional hits use
// target-anchor − query-position offset votes to localize a mapping.
func (s *Sketcher) QuerySketchPositional(segment []byte) ([]kmer.Word, []int32) {
	var q Query
	s.SketchQuery(&q, segment)
	return q.Words, q.Pos
}

// querySketchTuples is the query-sketch inner loop: per trial, one
// linear minimum over q.Tuples, written to q.Words and q.Pos (left
// empty, nil for a fresh Query, when there are no tuples).
//
//jem:hotpath
func (s *Sketcher) querySketchTuples(q *Query) {
	tuples := q.Tuples
	if len(tuples) == 0 {
		q.Words, q.Pos = q.Words[:0], q.Pos[:0]
		return
	}
	if cap(q.Words) < s.p.T || cap(q.Pos) < s.p.T {
		q.Words, q.Pos = make([]kmer.Word, s.p.T), make([]int32, s.p.T)
	}
	q.Words, q.Pos = q.Words[:s.p.T], q.Pos[:s.p.T]
	for t := range q.Words {
		// Seed from the first tuple, not a ⟨max,max⟩ sentinel: a
		// sentinel is never replaced when every candidate ties it
		// exactly (possible with a degenerate hash family), which left
		// idx at -1 and panicked on the tuples[best.idx] below.
		best := hentry{h: s.hf.Hash(t, tuples[0].Kmer), w: tuples[0].Kmer, idx: 0}
		for i := 1; i < len(tuples); i++ {
			e := hentry{h: s.hf.Hash(t, tuples[i].Kmer), w: tuples[i].Kmer, idx: i}
			if less(e, best) {
				best = e
			}
		}
		q.Words[t] = best.w
		q.Pos[t] = tuples[best.idx].Pos
	}
}

// MinHashSketch computes the classical MinHash sketch of a sequence:
// for each trial t, the canonical k-mer of the whole sequence
// minimizing h_t. This is the "classical MinHash" baseline of Fig. 6.
// It returns nil when the sequence has no valid k-mers.
func (s *Sketcher) MinHashSketch(sequence []byte) []kmer.Word {
	it := kmer.NewIterator(sequence, s.p.K)
	best := make([]hentry, s.p.T)
	for t := range best {
		best[t] = hentry{h: ^uint64(0), w: ^kmer.Word(0)}
	}
	any := false
	for {
		_, canon, _, ok := it.Next()
		if !ok {
			break
		}
		any = true
		for t := 0; t < s.p.T; t++ {
			e := hentry{h: s.hf.Hash(t, canon), w: canon}
			if less(e, best[t]) {
				best[t] = e
			}
		}
	}
	if !any {
		return nil
	}
	out := make([]kmer.Word, s.p.T)
	for t := range out {
		out[t] = best[t].w
	}
	return out
}
