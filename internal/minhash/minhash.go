// Package minhash implements the classical MinHash mapper used as the
// second baseline in the paper's Fig. 6: each subject contributes T
// whole-sequence minhashes (one per random trial) to the sketch table,
// with no minimizer windowing and no ℓ-interval constraint. Queries
// are sketched the same way and scored by trial-hit frequency. The
// point of the comparison is that, without the interval constraint,
// sketches of long contigs routinely fall outside the region a ℓ-long
// end segment overlaps, so far more trials are needed for the same
// recall.
package minhash

import (
	"context"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/seq"
	"repro/internal/sketch"
)

// Mapper is the classical-MinHash mapper.
type Mapper struct {
	sk    *sketch.Sketcher
	table *sketch.FrozenTable
	nsubj int
}

// NewMapper sketches all contigs with T whole-sequence minhashes.
// Parameters K, T and Seed of p are honored; W and L are irrelevant to
// the classical scheme (all k-mers participate) but validated anyway
// so configurations stay interchangeable with the JEM mapper.
func NewMapper(contigs []seq.Record, p sketch.Params, workers int) (*Mapper, error) {
	sk, err := sketch.NewSketcher(p)
	if err != nil {
		return nil, err
	}
	// Each worker sketches contigs and appends them — one word per trial
	// and subject, no anchors — to its own appender.
	build := sketch.NewBuilder(p.T)
	parallel.ForEachWorker(len(contigs), workers, build.Appender, func(a *sketch.Appender, i int) {
		words := sk.MinHashSketch(contigs[i].Seq)
		if words == nil {
			return
		}
		perTrial := make([][]sketch.Word, p.T)
		for t := range perTrial {
			perTrial[t] = words[t : t+1]
		}
		a.Append(int32(i), perTrial, nil)
	})
	sf, err := build.Freeze(1, workers, nil)
	if err != nil {
		return nil, err
	}
	return &Mapper{sk: sk, table: sf.Shard(0), nsubj: len(contigs)}, nil
}

// Session holds per-goroutine lazy counters, mirroring core.Session.
type Session struct {
	m     *Mapper
	count []int32
	lastq []int32
	qid   int32
	cand  []int32
}

// NewSession creates a mapping session.
func (m *Mapper) NewSession() *Session {
	s := &Session{
		m:     m,
		count: make([]int32, m.nsubj),
		lastq: make([]int32, m.nsubj),
	}
	for i := range s.lastq {
		s.lastq[i] = -1
	}
	return s
}

// MapSegment maps one end segment by classical MinHash collision
// counting.
func (s *Session) MapSegment(segment []byte) (core.Hit, bool) {
	words := s.m.sk.MinHashSketch(segment)
	if words == nil {
		return core.Hit{Subject: -1}, false
	}
	s.qid++
	qid := s.qid
	s.cand = s.cand[:0]
	for t, w := range words {
		for _, p := range s.m.table.Lookup(t, w) {
			subj := p.Subject
			if s.lastq[subj] != qid {
				s.lastq[subj] = qid
				s.count[subj] = 0
				s.cand = append(s.cand, subj)
			}
			s.count[subj]++
		}
	}
	if len(s.cand) == 0 {
		return core.Hit{Subject: -1}, false
	}
	best := core.Hit{Subject: -1, Count: 0}
	for _, subj := range s.cand {
		c := s.count[subj]
		if c > best.Count || (c == best.Count && subj < best.Subject) {
			best = core.Hit{Subject: subj, Count: c}
		}
	}
	return best, true
}

// MapReads maps the end segments of all reads through core.MapEnds,
// producing results shaped like core.Mapper.MapReads for the shared
// evaluator.
//
//jem:detached offline comparison baseline: no request scope to inherit
func (m *Mapper) MapReads(reads []seq.Record, l int, workers int) []core.Result {
	results, _, _ := core.MapEnds(context.Background(), reads, l, workers, m.NewSession,
		func(s *Session, e core.End) core.Result { return e.Result(s.MapSegment(e.Seq)) })
	return results
}
