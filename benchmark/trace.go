package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one traced interval at a layer boundary. The benchmark
// records spans only from its own files, around its calls into the
// program's packages; the program itself is not instrumented for it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	// Pass identifies the operation (stream pass, request, cycle or
	// walk batch) the span belongs to; spans of one operation share it.
	Pass    int   `json:"pass"`
	StartNS int64 `json:"start_ns"` // since the tracer was created
	EndNS   int64 `json:"end_ns"`
	// Replayed marks a child that re-ran its parent's inner step on
	// the same inputs after the parent finished (the program exposes
	// no hook inside MapSegment), so it lies outside the parent's
	// interval; self time still subtracts its duration.
	Replayed bool `json:"replayed,omitempty"`
	// Counts holds work counted at the same boundary (reads, postings,
	// tuples, rpcs, allocs).
	Counts map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced run: every method is a no-op.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, pass int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Pass: pass, StartNS: now, EndNS: -1})
	return id
}

// count is one work counter attached to a span.
type count struct {
	name string
	n    int64
}

// end closes span id and attaches the counts taken at its boundary.
func (t *tracer) end(id int, counts ...count) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.EndNS = now
	for _, c := range counts {
		if s.Counts == nil {
			s.Counts = make(map[string]int64)
		}
		s.Counts[c.name] += c.n
	}
}

// replay records a finished child interval measured outside its
// parent's own interval (see span.Replayed).
func (t *tracer) replay(name string, parent, pass int, start time.Time, d time.Duration, counts ...count) {
	if t == nil {
		return
	}
	from := start.Sub(t.t0).Nanoseconds()
	sp := span{Parent: parent, Name: name, Pass: pass, StartNS: from, EndNS: from + d.Nanoseconds(), Replayed: true}
	for _, c := range counts {
		if sp.Counts == nil {
			sp.Counts = make(map[string]int64)
		}
		sp.Counts[c.name] += c.n
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sp.ID = len(t.spans)
	t.spans = append(t.spans, sp)
}

// layerTotals is the per-name aggregate of a trace.
type layerTotals struct {
	Spans  int
	Total  time.Duration // Σ span duration
	Self   time.Duration // Σ (span − its children), floored at 0 per span
	Counts map[string]int64
}

// mark returns the id the next span will get, for totals(since).
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// totals aggregates by name the closed spans recorded since mark
// since. A span's self time is its duration minus the durations of its
// direct children.
func (t *tracer) totals(since int) map[string]*layerTotals {
	out := make(map[string]*layerTotals)
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans[since:] {
		if s.EndNS >= 0 && s.Parent >= 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	for _, s := range t.spans[since:] {
		if s.EndNS < 0 {
			continue
		}
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotals{Counts: make(map[string]int64)}
			out[s.Name] = lt
		}
		d := s.EndNS - s.StartNS
		lt.Spans++
		lt.Total += time.Duration(d)
		if self := d - child[s.ID]; self > 0 {
			lt.Self += time.Duration(self)
		}
		for k, v := range s.Counts {
			lt.Counts[k] += v
		}
	}
	return out
}

// traceFile is the -trace-out document.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

// writeFile writes the spans as JSON.
func (t *tracer) writeFile(path, workload string, seed int64) error {
	t.mu.Lock()
	doc := traceFile{Workload: workload, Seed: seed, Spans: t.spans}
	buf, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
