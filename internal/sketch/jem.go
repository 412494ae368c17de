package sketch

import (
	"fmt"
	"math/bits"
	"slices"

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

// Sketcher turns sequences into JEM sketches. It is immutable after
// construction and safe for concurrent use: scratch belongs to the
// caller's Appender or Query.
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

// AppendSubject implements Algorithm 1 (Sketch_byJEM) for one subject,
// from bases straight to ⟨word, subject, anchor⟩ records in a: per
// trial t and ℓ-base interval anchored at each minimizer, the interval's
// ⟨h_t, word⟩ minimum, when it differs from the trial's previous word.
// The anchor is its position (the rightmost, on a tie), or -1 when not
// positional, so a word's anchors never decrease within one subject's
// trial. All scratch is a's: a warm appender does not allocate.
func (s *Sketcher) AppendSubject(a *Appender, subject int32, seq []byte, positional bool) {
	if len(a.runs) != s.p.T {
		panic(fmt.Sprintf("sketch: sketcher has %d trials, appender %d", s.p.T, len(a.runs)))
	}
	a.tuples = minimizer.AppendExtract(a.tuples[:0], seq, s.mp)
	s.sketchTuples(a, subject, a.tuples, positional)
}

// SubjectSketchTuples runs AppendSubject's kernel over a pre-extracted
// minimizer list into a fresh appender and returns each trial's words.
func (s *Sketcher) SubjectSketchTuples(tuples []minimizer.Tuple) [][]kmer.Word {
	a := &Appender{runs: make([][]record, s.p.T)}
	s.sketchTuples(a, 0, tuples, false)
	out := make([][]kmer.Word, s.p.T)
	for t, run := range a.runs {
		out[t] = make([]kmer.Word, len(run))
		for i, r := range run {
			out[t][i] = r.word
		}
	}
	return out
}

type hentry struct {
	h   uint64
	w   kmer.Word
	idx int
}

// before orders candidates by ⟨hash, word⟩, as one 128-bit comparison
// with no branch.
func before(ah uint64, aw kmer.Word, bh uint64, bw kmer.Word) bool {
	_, borrow := bits.Sub64(uint64(aw), uint64(bw), 0)
	_, borrow = bits.Sub64(ah, bh, borrow)
	return borrow != 0
}

// sketchTuples is the subject-sketch inner loop. The intervals
// [i, end[i]) only move right, so the blocks [b, end[b]) chained from
// b = 0 cut each in two: a suffix of i's block and a prefix of the
// next — the van Herk / Gil-Werman two-stack minimum.
//
//jem:hotpath
func (s *Sketcher) sketchTuples(a *Appender, subject int32, tuples []minimizer.Tuple, positional bool) {
	n := len(tuples)
	a.end = slices.Grow(a.end[:0], n)[:n]
	a.hashes = slices.Grow(a.hashes[:0], n)[:n]
	a.prefix = slices.Grow(a.prefix[:0], n)[:n]
	a.suffix = slices.Grow(a.suffix[:0], n)[:n]
	a.recs = slices.Grow(a.recs[:0], n)[:n]
	for i, j := 0, 0; i < n; i++ { // end[i]: one past the last tuple within ℓ of tuple i
		for limit := tuples[i].Pos + int32(s.p.L); j < n && tuples[j].Pos <= limit; j++ {
		}
		a.end[i] = int32(j)
	}
	for t := range a.runs {
		for i := range tuples {
			a.hashes[i] = s.hf.Hash(t, tuples[i].Kmer)
		}
		blockMinima(a, tuples)
		a.runs[t] = appendMinima(a.runs[t], a, subject, tuples, positional)
	}
}

// blockMinima writes, per block, the index of the ⟨hash, word⟩ minimum
// up to each tuple into a.prefix ("≤": ties go right) and from each
// tuple on into a.suffix (strict: ties go right).
//
//jem:hotpath
func blockMinima(a *Appender, tuples []minimizer.Tuple) {
	for lo, hi := 0, 0; lo < len(tuples); lo = hi {
		hi = int(a.end[lo])
		hs, ts, pre, suf := a.hashes[lo:hi], tuples[lo:hi], a.prefix[lo:hi], a.suffix[lo:hi]
		ts, pre, suf = ts[:len(hs)], pre[:len(hs)], suf[:len(hs)] // one length: the loops run without bounds checks
		m, mh, mw := 0, hs[0], ts[0].Kmer
		for k := range hs {
			if h, w := hs[k], ts[k].Kmer; !before(mh, mw, h, w) {
				m, mh, mw = k, h, w
			}
			pre[k] = int32(lo + m)
		}
		m, mh, mw = len(hs)-1, hs[len(hs)-1], ts[len(hs)-1].Kmer
		for k := len(hs) - 1; k >= 0; k-- {
			if h, w := hs[k], ts[k].Kmer; before(h, w, mh, mw) {
				m, mh, mw = k, h, w
			}
			suf[k] = int32(lo + m)
		}
	}
}

// appendMinima appends each interval's minimum, the suffix half unless
// the prefix half is no larger, when its word differs from the previous
// interval's. Records are written unconditionally into a.recs, kept by
// advancing a count, and the kept ones appended to run.
//
//jem:hotpath
func appendMinima(run []record, a *Appender, subject int32, tuples []minimizer.Tuple, positional bool) []record {
	n := len(tuples)
	out, kept, last := a.recs[:n], 0, ^kmer.Word(0) // no k-mer packs to ^0
	end, pre, suf, hs := a.end[:n], a.prefix[:n], a.suffix[:n], a.hashes[:n]
	for lo, hi := 0, 0; lo < n; lo = hi {
		hi = int(end[lo])
		for i := lo; i < hi; i++ {
			m := suf[i]
			if e := int(end[i]); e > hi {
				if p := pre[e-1]; !before(hs[m], tuples[m].Kmer, hs[p], tuples[p].Kmer) {
					m = p
				}
			}
			anchor := tuples[m].Pos
			if !positional {
				anchor = -1
			}
			out[kept] = record{word: tuples[m].Kmer, subject: subject, anchor: anchor}
			if out[kept].word != last {
				last = out[kept].word
				kept++
			}
		}
	}
	return append(run, out[:kept]...)
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
	var q Query
	s.SketchQuery(&q, segment)
	return q.Words
}

// QuerySketchTuples is QuerySketch over a pre-extracted minimizer list.
func (s *Sketcher) QuerySketchTuples(tuples []minimizer.Tuple) []kmer.Word {
	q := Query{Tuples: tuples}
	s.querySketchTuples(&q)
	return q.Words
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
			if e.h < best.h || e.h == best.h && e.w < best.w {
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
			if e.h < best[t].h || e.h == best[t].h && e.w < best[t].w {
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

// AppendMinHash appends seq's MinHashSketch to a as subject's records,
// one per trial with anchor -1; a sequence without k-mers appends
// nothing.
func (s *Sketcher) AppendMinHash(a *Appender, subject int32, seq []byte) {
	if len(a.runs) != s.p.T {
		panic(fmt.Sprintf("sketch: sketcher has %d trials, appender %d", s.p.T, len(a.runs)))
	}
	for t, w := range s.MinHashSketch(seq) {
		a.runs[t] = append(a.runs[t], record{word: w, subject: subject, anchor: -1})
	}
}
