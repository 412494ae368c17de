// Package mashmap reimplements the stage-1 mapping strategy of
// Mashmap (Jain et al., RECOMB 2017), the state-of-the-art baseline
// the paper compares against. For each subject minimizer the index
// keeps every position at which it occurs; at query time the shared
// minimizer positions are grouped per subject and a window of the
// query length is slid over them to find the region of maximal local
// intersection, whose size estimates the winnowed Jaccard. The
// best-scoring subject is reported as the top hit, matching the paper's
// head-to-head evaluation setup.
package mashmap

import (
	"context"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/kmer"
	"repro/internal/minimizer"
	"repro/internal/parallel"
	"repro/internal/seq"
)

// Params configures the baseline.
type Params struct {
	K int // k-mer size (default 16)
	W int // minimizer window (default 100)
	// SegLen is the query segment length ℓ used as the local
	// intersection window span (default 1000).
	SegLen int
	// MinShared is the minimum local intersection size to report a
	// hit (default 2; 1 would let single random collisions through).
	MinShared int
}

func (p Params) withDefaults() Params {
	if p.K == 0 {
		p.K = 16
	}
	if p.W == 0 {
		p.W = 100
	}
	if p.SegLen == 0 {
		p.SegLen = 1000
	}
	if p.MinShared == 0 {
		p.MinShared = 2
	}
	return p
}

type loc struct {
	subject int32
	pos     int32
}

// Mapper is the Mashmap-style index.
type Mapper struct {
	p     Params
	mp    minimizer.Params
	index map[kmer.Word][]loc
	nsubj int
}

// NewMapper indexes the contigs with `workers` goroutines (≤0 =
// GOMAXPROCS). Subject ids are dense input-order indices, matching the
// id space of core.Mapper over the same contig slice.
func NewMapper(contigs []seq.Record, p Params, workers int) *Mapper {
	p = p.withDefaults()
	m := &Mapper{
		p:     p,
		mp:    minimizer.Params{K: p.K, W: p.W},
		index: make(map[kmer.Word][]loc),
		nsubj: len(contigs),
	}
	lists := make([][]minimizer.Tuple, len(contigs))
	parallel.ForEach(len(contigs), workers, func(i int) {
		lists[i] = minimizer.Extract(contigs[i].Seq, m.mp)
	})
	for i, tuples := range lists {
		for _, t := range tuples {
			m.index[t.Kmer] = append(m.index[t.Kmer], loc{int32(i), t.Pos})
		}
	}
	return m
}

// Detail carries the stage-2 style metadata of a mapping: where on
// the subject the best window starts, how many distinct minimizers the
// query produced, and the Mash-style identity estimate.
type Detail struct {
	// Pos is the subject position of the best window's first shared
	// minimizer.
	Pos int32
	// QueryMinimizers is |W(q)|, the denominator of the containment
	// Jaccard estimate.
	QueryMinimizers int
	// Identity is the Mash-distance-derived percent identity estimate
	// (0 when the Jaccard estimate is 0).
	Identity float64
}

// MapSegment maps a single end segment, returning the best-hit
// subject and its local intersection score. ok=false when no subject
// reaches MinShared.
func (m *Mapper) MapSegment(segment []byte) (core.Hit, bool) {
	hit, _, ok := m.MapSegmentDetailed(segment)
	return hit, ok
}

// MapSegmentDetailed is MapSegment plus stage-2 detail (window
// position and identity estimate), mirroring what Mashmap reports per
// mapping.
func (m *Mapper) MapSegmentDetailed(segment []byte) (core.Hit, Detail, bool) {
	tuples := minimizer.Extract(segment, m.mp)
	if len(tuples) == 0 {
		return core.Hit{Subject: -1}, Detail{}, false
	}
	// Distinct query minimizer words.
	words := make(map[kmer.Word]struct{}, len(tuples))
	for _, t := range tuples {
		words[t.Kmer] = struct{}{}
	}
	var hits []loc
	for w := range words {
		hits = append(hits, m.index[w]...)
	}
	if len(hits) == 0 {
		return core.Hit{Subject: -1}, Detail{}, false
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].subject != hits[j].subject {
			return hits[i].subject < hits[j].subject
		}
		return hits[i].pos < hits[j].pos
	})
	best := core.Hit{Subject: -1}
	bestPos := int32(-1)
	span := int32(m.p.SegLen)
	for i := 0; i < len(hits); {
		j := i
		subj := hits[i].subject
		for j < len(hits) && hits[j].subject == subj {
			j++
		}
		// Maximal window of span ℓ over this subject's positions.
		score := int32(0)
		pos := int32(-1)
		lo := i
		for hi := i; hi < j; hi++ {
			for hits[hi].pos-hits[lo].pos > span {
				lo++
			}
			if c := int32(hi - lo + 1); c > score {
				score = c
				pos = hits[lo].pos
			}
		}
		if score > best.Count || (score == best.Count && subj < best.Subject) {
			best = core.Hit{Subject: subj, Count: score}
			bestPos = pos
		}
		i = j
	}
	if best.Count < int32(m.p.MinShared) {
		return core.Hit{Subject: -1}, Detail{}, false
	}
	d := Detail{
		Pos:             bestPos,
		QueryMinimizers: len(words),
		Identity:        EstimateIdentity(int(best.Count), len(words), m.p.K),
	}
	return best, d, true
}

// EstimateIdentity converts a containment Jaccard estimate
// j = shared / queryMinimizers into a percent identity via the Mash
// distance d = -ln(2j/(1+j))/k (Ondov et al. 2016), the stage-2
// computation of Mashmap. Results are clamped to [0,100].
func EstimateIdentity(shared, queryMinimizers, k int) float64 {
	if shared <= 0 || queryMinimizers <= 0 {
		return 0
	}
	j := float64(shared) / float64(queryMinimizers)
	if j > 1 {
		j = 1
	}
	d := -math.Log(2*j/(1+j)) / float64(k)
	id := 100 * (1 - d)
	if id < 0 {
		return 0
	}
	if id > 100 {
		return 100
	}
	return id
}

// MapReads maps the end segments of every read with `workers`
// goroutines through core.MapEnds, returning results in the same order
// and shape as core.Mapper.MapReads so both feed the same evaluator.
// The mapper is its own session: it keeps no per-query state.
//
//jem:detached offline comparison baseline: no request scope to inherit
func (m *Mapper) MapReads(reads []seq.Record, l int, workers int) []core.Result {
	results, _, _ := core.MapEnds(context.Background(), reads, l, workers,
		func() *Mapper { return m },
		func(m *Mapper, e core.End) core.Result { return e.Result(m.MapSegment(e.Seq)) })
	return results
}
