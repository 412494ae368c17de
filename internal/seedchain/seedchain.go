// Package seedchain implements a seed-and-chain mapper in the style of
// Minimap2 (Li 2018), the third tool the paper's evaluation discusses:
// minimizer seeds are matched against an index that records positions
// and orientations, co-linear anchors are chained with a gap-penalized
// dynamic program, and the best chain names the mapped subject. The
// paper could not compare against Minimap2 head-to-head because it
// reports multiple hits per query; this implementation adapts the
// approach to the best-hit protocol so all three strategies (JEM,
// Mashmap-style windowing, seed-and-chain) are measurable on the same
// benchmark.
package seedchain

import (
	"context"
	"sort"

	"repro/internal/core"
	"repro/internal/kmer"
	"repro/internal/minimizer"
	"repro/internal/parallel"
	"repro/internal/seq"
)

// Params configures the mapper.
type Params struct {
	K int // k-mer size (default 16)
	W int // minimizer window (default 10; chaining wants denser seeds than JEM)
	// MaxGap is the largest allowed gap between chained anchors on
	// either sequence (default 500).
	MaxGap int
	// MinChain is the minimum number of anchors in a reportable chain
	// (default 3).
	MinChain int
	// MaxOccurrence drops seeds occurring more often than this in the
	// index (repeat masking; default 64).
	MaxOccurrence int
}

// Defaults returns sensible defaults for end-segment mapping.
func Defaults() Params {
	return Params{K: 16, W: 10, MaxGap: 500, MinChain: 3, MaxOccurrence: 64}
}

func (p Params) withDefaults() Params {
	d := Defaults()
	if p.K == 0 {
		p.K = d.K
	}
	if p.W == 0 {
		p.W = d.W
	}
	if p.MaxGap == 0 {
		p.MaxGap = d.MaxGap
	}
	if p.MinChain == 0 {
		p.MinChain = d.MinChain
	}
	if p.MaxOccurrence == 0 {
		p.MaxOccurrence = d.MaxOccurrence
	}
	return p
}

// loc is one indexed minimizer occurrence. fwd records whether the
// subject's forward k-mer at pos is the canonical form.
type loc struct {
	subject int32
	pos     int32
	fwd     bool
}

// Mapper is the seed-and-chain index.
type Mapper struct {
	p     Params
	mp    minimizer.Params
	index map[kmer.Word][]loc
	nsubj int
}

// NewMapper indexes contigs.
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
			m.index[t.Kmer] = append(m.index[t.Kmer], loc{int32(i), t.Pos, t.FwdIsCanon})
		}
	}
	return m
}

// anchor is a seed match: query position q, target position t (both
// minimizer start positions), on a subject, with relative strand.
type anchor struct {
	subject int32
	rev     bool
	q, t    int32
}

// Chain is the result of chaining one subject/strand bucket.
type Chain struct {
	Subject int32
	Reverse bool
	// Anchors is the chain length; Score the DP score.
	Anchors int
	Score   int32
	// TStart/TEnd span the chained anchors on the subject.
	TStart, TEnd int32
}

// MapSegment maps one end segment, returning the best chain.
// ok=false when no chain reaches MinChain anchors.
func (m *Mapper) MapSegment(segment []byte) (Chain, bool) {
	tuples := minimizer.Extract(segment, m.mp)
	if len(tuples) == 0 {
		return Chain{Subject: -1}, false
	}
	var anchors []anchor
	for _, t := range tuples {
		locs := m.index[t.Kmer]
		if len(locs) == 0 || len(locs) > m.p.MaxOccurrence {
			continue
		}
		for _, l := range locs {
			anchors = append(anchors, anchor{
				subject: l.subject,
				rev:     l.fwd != t.FwdIsCanon,
				q:       t.Pos,
				t:       l.pos,
			})
		}
	}
	if len(anchors) == 0 {
		return Chain{Subject: -1}, false
	}
	// Bucket by (subject, strand) and chain each bucket.
	sort.Slice(anchors, func(i, j int) bool {
		a, b := anchors[i], anchors[j]
		if a.subject != b.subject {
			return a.subject < b.subject
		}
		if a.rev != b.rev {
			return !a.rev && b.rev
		}
		if a.t != b.t {
			return a.t < b.t
		}
		return a.q < b.q
	})
	best := Chain{Subject: -1}
	for i := 0; i < len(anchors); {
		j := i
		for j < len(anchors) && anchors[j].subject == anchors[i].subject && anchors[j].rev == anchors[i].rev {
			j++
		}
		c := m.chainBucket(anchors[i:j])
		if c.Anchors >= m.p.MinChain &&
			(c.Score > best.Score || (c.Score == best.Score && c.Subject < best.Subject)) {
			best = c
		}
		i = j
	}
	if best.Subject < 0 {
		return Chain{Subject: -1}, false
	}
	return best, true
}

// chainBucket runs the co-linear chaining DP over one subject/strand
// bucket (anchors sorted by target position). Forward chains require
// query positions to increase with target positions; reverse chains
// require them to decrease.
func (m *Mapper) chainBucket(as []anchor) Chain {
	n := len(as)
	score := make([]int32, n)
	count := make([]int16, n)
	back := make([]int32, n)
	const lookback = 40
	var bestIdx int
	rev := as[0].rev
	for i := 0; i < n; i++ {
		score[i] = int32(m.p.K) // a chain of one anchor scores k
		count[i] = 1
		back[i] = -1
		lo := i - lookback
		if lo < 0 {
			lo = 0
		}
		for j := i - 1; j >= lo; j-- {
			dt := as[i].t - as[j].t
			if dt <= 0 {
				continue
			}
			if int(dt) > m.p.MaxGap {
				break // sorted by t: all earlier j are farther
			}
			var dq int32
			if !rev {
				dq = as[i].q - as[j].q
			} else {
				dq = as[j].q - as[i].q
			}
			if dq <= 0 || int(dq) > m.p.MaxGap {
				continue
			}
			gap := dt - dq
			if gap < 0 {
				gap = -gap
			}
			match := int32(m.p.K)
			if dt < match {
				match = dt
			}
			if dq < match {
				match = dq
			}
			s := score[j] + match - gap/8
			if s > score[i] {
				score[i] = s
				count[i] = count[j] + 1
				back[i] = int32(j)
			}
		}
		if score[i] > score[bestIdx] {
			bestIdx = i
		}
	}
	// Walk back for the span.
	tEnd := as[bestIdx].t + int32(m.p.K)
	tStart := as[bestIdx].t
	for i := int32(bestIdx); i >= 0; i = back[i] {
		tStart = as[i].t
		if back[i] < 0 {
			break
		}
	}
	return Chain{
		Subject: as[0].subject,
		Reverse: rev,
		Anchors: int(count[bestIdx]),
		Score:   score[bestIdx],
		TStart:  tStart,
		TEnd:    tEnd,
	}
}

// MapReads maps the end segments of every read through core.MapEnds,
// producing results in the shared core.Result shape so the common
// evaluator applies; a row's count is its chain's anchor count. The
// mapper is its own session: it keeps no per-query state.
//
//jem:detached offline comparison baseline: no request scope to inherit
func (m *Mapper) MapReads(reads []seq.Record, l int, workers int) []core.Result {
	results, _ := core.MapEnds(context.Background(), reads, l, workers,
		func() *Mapper { return m },
		func(m *Mapper, e core.End) core.Result {
			chain, ok := m.MapSegment(e.Seq)
			return e.Result(core.Hit{Subject: chain.Subject, Count: int32(chain.Anchors)}, ok)
		})
	return results
}

// Err is core.MapEnds' session contract; an in-memory index cannot
// degrade, so it is always nil.
func (m *Mapper) Err() error { return nil }
