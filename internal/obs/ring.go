package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// ring is a bounded buffer that keeps the newest size items,
// overwriting the oldest once full: the retention shape of every obs
// surface (tracer roots, the trace ring, the request log, the flight
// recorder). It has no lock of its own; each owner holds its mutex
// around every call. size must be positive.
type ring[T any] struct {
	size int
	buf  []T
	next int // the oldest item, and the slot the next push overwrites, once full
}

func newRing[T any](size int) ring[T] { return ring[T]{size: size} }

func (r *ring[T]) push(v T) {
	if len(r.buf) < r.size {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.next] = v
	r.next = (r.next + 1) % r.size
}

func (r *ring[T]) len() int { return len(r.buf) }

// snapshot returns a copy of the retained items, oldest first.
func (r *ring[T]) snapshot() []T {
	out := make([]T, 0, len(r.buf))
	return append(append(out, r.buf[r.next:]...), r.buf[:r.next]...)
}

// Trace is one completed request, the only record the serving tier
// keeps of it: its span tree, its outcome, and the numbers the
// request log reports, so one line answers "what did this request
// cost and where" and the trace ID links to the full tree.
type Trace struct {
	ID       TraceID
	Root     *Span
	Index    string // the index the request resolved to ("" when none)
	Status   int    // HTTP status (0 when not applicable)
	Err      string // terse error classification, "" on success
	Start    time.Time
	Duration time.Duration
	// Kept records why the ring retained the trace ("error", "slow",
	// "p99", "sampled"); set by TraceRing.Add.
	Kept string

	// The request's run numbers for the request log: reads mapped and
	// skipped as malformed, postings scanned, and where the wall went.
	Reads, Mapped, Bad                          int
	Postings                                    int64
	AdmissionWait, ReadWall, MapWall, WriteWall time.Duration
}

// TraceRing retains completed traces in a bounded ring with
// tail-sampling: every error (status >= 400 or a classified error)
// is kept, every request over the slow threshold is kept, the
// estimated-p99 latency tail is kept, and the remaining ok-and-fast
// majority is sampled 1-in-N. Memory is bounded twice over — by the
// sampling and by the ring capacity — so a long-lived server can
// leave it on forever.
type TraceRing struct {
	mu      sync.Mutex
	sampleN int
	slow    time.Duration
	buf     ring[*Trace]
	seq     int64 // ok-and-fast traces seen, for 1-in-N sampling
	seen    int64
	kept    int64
	lat     *Histogram // duration distribution driving the p99 tail keep
}

// p99MinSamples is how many completed traces the ring must have seen
// before the p99-tail keep engages: a quantile over a handful of
// samples is noise and would defeat the sampling.
const p99MinSamples = 100

// NewTraceRing creates a ring retaining at most capacity traces,
// sampling 1 in sampleN of the ok-and-fast traces (sampleN <= 1 keeps
// all of them), and always keeping traces at least slow long
// (slow <= 0 disables the threshold keep; the p99 tail keep still
// applies).
func NewTraceRing(capacity, sampleN int, slow time.Duration) *TraceRing {
	return &TraceRing{
		sampleN: max(sampleN, 1),
		slow:    slow,
		buf:     newRing[*Trace](capacity),
		lat:     NewHistogram(LatencyBuckets()),
	}
}

// Add applies the tail-sampling policy to t and retains it when the
// policy keeps it, evicting the oldest retained trace once the ring
// is full. It reports whether t was kept and records the reason in
// t.Kept.
func (r *TraceRing) Add(t *Trace) bool {
	r.lat.Observe(t.Duration.Seconds())
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seen++
	switch {
	case t.Status >= 400 || t.Err != "":
		t.Kept = "error"
	case r.slow > 0 && t.Duration >= r.slow:
		t.Kept = "slow"
	case r.lat.Count() >= p99MinSamples && t.Duration.Seconds() >= r.lat.Quantile(0.99):
		t.Kept = "p99"
	default:
		r.seq++
		if r.seq%int64(r.sampleN) != 0 {
			return false
		}
		t.Kept = "sampled"
	}
	r.kept++
	r.buf.push(t)
	return true
}

// Len returns how many traces the ring currently retains.
func (r *TraceRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.buf.len()
}

// Snapshot returns the retained traces oldest-first.
func (r *TraceRing) Snapshot() []*Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.buf.snapshot()
}

// Find returns the retained trace with the given ID, nil when absent
// (never offered, sampled out, or already evicted).
func (r *TraceRing) Find(id TraceID) *Trace {
	for _, t := range r.Snapshot() {
		if t.ID == id {
			return t
		}
	}
	return nil
}

// WriteText renders the retained traces oldest-first as indented span
// trees under a header line counting traces retained, seen (offered)
// and kept by the policy (some since evicted by the ring bound), one
// header line per trace:
//
//	trace 9c4e6a2b8f01d37e  status=200  dur=12.3ms  kept=sampled
//	  request               12.3ms  reads=100
//	    admission           11µs
//	    ...
func (r *TraceRing) WriteText(w io.Writer) error {
	r.mu.Lock()
	traces, seen, kept := r.buf.snapshot(), r.seen, r.kept
	r.mu.Unlock()
	if _, err := fmt.Fprintf(w, "# %d traces retained of %d seen (%d kept by policy)\n",
		len(traces), seen, kept); err != nil {
		return err
	}
	for _, t := range traces {
		if err := t.WriteText(w); err != nil {
			return err
		}
	}
	return nil
}

// WriteText renders one trace: a header line with its identity and
// outcome, then the indented span tree.
func (t *Trace) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "trace %s  status=%d  dur=%v  kept=%s  start=%s\n",
		t.ID, t.Status, t.Duration.Round(time.Microsecond), t.Kept,
		t.Start.Format(time.RFC3339Nano)); err != nil {
		return err
	}
	if t.Err != "" {
		if _, err := fmt.Fprintf(w, "  error: %s\n", t.Err); err != nil {
			return err
		}
	}
	return RenderSpan(w, t.Root, 1)
}

// WriteJSON renders one trace as a single JSON object, the same shape
// as one WriteNDJSON line.
func (t *Trace) WriteJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(t.toJSON())
}

func (t *Trace) toJSON() traceJSON {
	return traceJSON{
		TraceID:    t.ID.String(),
		Status:     t.Status,
		Err:        t.Err,
		Start:      t.Start.Format(time.RFC3339Nano),
		DurationNS: t.Duration.Nanoseconds(),
		Kept:       t.Kept,
		Root:       spanToJSON(t.Root),
	}
}

// spanJSON is the NDJSON shape of one span subtree.
type spanJSON struct {
	Name       string         `json:"name"`
	DurationNS int64          `json:"duration_ns"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Children   []spanJSON     `json:"children,omitempty"`
}

func spanToJSON(s *Span) spanJSON {
	out := spanJSON{Name: s.Name(), DurationNS: s.Duration().Nanoseconds(), Attrs: attrMap(s.Attrs())}
	for _, c := range s.Children() {
		out.Children = append(out.Children, spanToJSON(c))
	}
	return out
}

// attrMap renders attrs as a JSON object (nil when there are none, so
// an omitempty field drops it).
func attrMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value
	}
	return m
}

// traceJSON is the NDJSON shape of one retained trace.
type traceJSON struct {
	TraceID    string   `json:"trace_id"`
	Status     int      `json:"status,omitempty"`
	Err        string   `json:"error,omitempty"`
	Start      string   `json:"start"`
	DurationNS int64    `json:"duration_ns"`
	Kept       string   `json:"kept"`
	Root       spanJSON `json:"root"`
}

// WriteNDJSON renders the retained traces oldest-first as one JSON
// object per line — the machine-readable face of /debug/traces.
func (r *TraceRing) WriteNDJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, t := range r.Snapshot() {
		if err := enc.Encode(t.toJSON()); err != nil {
			return err
		}
	}
	return nil
}
