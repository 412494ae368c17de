package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
	"sync"
	"time"
)

// FlightSnapshot is one point-in-time capture taken when a request
// exceeded the slow-request threshold: what the process looked like
// at the moment the slowness was observed. Unlike a trace (which says
// where the request's own time went), a flight snapshot says what
// else was happening — goroutines, admission pressure, the in-flight
// table — which is usually where the answer to "why was it slow" is.
type FlightSnapshot struct {
	Time  time.Time
	Trace *Trace // the slow request: its ID, duration and span tree
	// Attrs are caller-supplied point-in-time numbers: admission-queue
	// depth, in-flight count, the rendered in-flight table.
	Attrs []Attr
	// Goroutines is the goroutine profile (pprof "goroutine", debug=1)
	// at capture, truncated to goroutineDumpLimit.
	Goroutines string
}

// goroutineDumpLimit bounds one snapshot's goroutine dump so a
// thousand-goroutine process cannot turn the flight ring into a
// memory hog (the ring bound times this is the worst case).
const goroutineDumpLimit = 64 << 10

// FlightRecorder keeps a bounded ring of flight snapshots. Captures
// are rate-limited (minGap between captures) because slow requests
// arrive in bursts exactly when the process is least able to afford
// goroutine dumps; the suppressed count says how many a burst cost.
type FlightRecorder struct {
	threshold time.Duration
	minGap    time.Duration

	mu         sync.Mutex
	buf        ring[*FlightSnapshot]
	last       time.Time
	captures   int64
	suppressed int64
}

// NewFlightRecorder creates a recorder that considers requests slower
// than threshold capture-worthy (threshold <= 0 disables capturing),
// retains at most capacity snapshots, and takes at most one capture
// per minGap.
func NewFlightRecorder(threshold time.Duration, capacity int, minGap time.Duration) *FlightRecorder {
	return &FlightRecorder{threshold: threshold, minGap: minGap, buf: newRing[*FlightSnapshot](capacity)}
}

// Exceeded reports whether a request of duration d crosses the
// capture threshold.
func (f *FlightRecorder) Exceeded(d time.Duration) bool {
	return f.threshold > 0 && d >= f.threshold
}

// Capture takes a snapshot for trace t (the goroutine profile, with
// the caller's point-in-time attrs) and retains it unless the rate
// limit suppresses it. It reports whether a snapshot was taken.
func (f *FlightRecorder) Capture(t *Trace, attrs []Attr) bool {
	now := time.Now()
	f.mu.Lock()
	if f.minGap > 0 && !f.last.IsZero() && now.Sub(f.last) < f.minGap {
		f.suppressed++
		f.mu.Unlock()
		return false
	}
	f.last = now
	f.mu.Unlock()

	// The goroutine dump, the expensive part, runs outside the lock so
	// readers are never blocked behind it.
	var g bytes.Buffer
	if p := pprof.Lookup("goroutine"); p != nil {
		_ = p.WriteTo(&g, 1)
	}
	dump := g.Bytes()
	if len(dump) > goroutineDumpLimit {
		dump = append(dump[:goroutineDumpLimit:goroutineDumpLimit], "\n... (truncated)\n"...)
	}
	snap := &FlightSnapshot{Time: now, Trace: t, Attrs: attrs, Goroutines: string(dump)}

	f.mu.Lock()
	f.captures++
	f.buf.push(snap)
	f.mu.Unlock()
	return true
}

// Captures returns how many snapshots have been taken.
func (f *FlightRecorder) Captures() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.captures
}

// Snapshots returns the retained snapshots oldest-first.
func (f *FlightRecorder) Snapshots() []*FlightSnapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.buf.snapshot()
}

// spanTree renders the subtree under s as RenderSpan text.
func spanTree(s *Span) string {
	var b strings.Builder
	_ = RenderSpan(&b, s, 0)
	return b.String()
}

// reason says why s was captured.
func (f *FlightRecorder) reason(s *FlightSnapshot) string {
	return fmt.Sprintf("request exceeded slow threshold %v (took %v)", f.threshold, s.Trace.Duration.Round(time.Microsecond))
}

// WriteText renders the retained snapshots oldest-first under a header
// counting captures and the requests the rate limit skipped.
func (f *FlightRecorder) WriteText(w io.Writer) error {
	f.mu.Lock()
	snaps, captures, suppressed := f.buf.snapshot(), f.captures, f.suppressed
	f.mu.Unlock()
	if _, err := fmt.Fprintf(w, "# %d flight snapshots retained (%d captured, %d suppressed by rate limit, threshold %v)\n",
		len(snaps), captures, suppressed, f.threshold); err != nil {
		return err
	}
	for _, s := range snaps {
		if _, err := fmt.Fprintf(w, "\n=== flight %s  trace=%s  dur=%v\n%s\n",
			s.Time.Format(time.RFC3339Nano), s.Trace.ID, s.Trace.Duration.Round(time.Microsecond), f.reason(s)); err != nil {
			return err
		}
		for _, a := range s.Attrs {
			if _, err := fmt.Fprintf(w, "%s: %v\n", a.Key, a.Value); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "--- span tree\n%s--- goroutines\n%s", spanTree(s.Trace.Root), s.Goroutines); err != nil {
			return err
		}
	}
	return nil
}

// flightJSON is the NDJSON shape of one snapshot (the goroutine dump
// is included verbatim; it is already size-bounded).
type flightJSON struct {
	Time       string         `json:"time"`
	TraceID    string         `json:"trace_id"`
	Reason     string         `json:"reason"`
	DurationNS int64          `json:"duration_ns"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	SpanTree   string         `json:"span_tree"`
	Goroutines string         `json:"goroutines"`
}

// WriteNDJSON renders the retained snapshots oldest-first as one JSON
// object per line.
func (f *FlightRecorder) WriteNDJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range f.Snapshots() {
		if err := enc.Encode(flightJSON{
			Time:       s.Time.Format(time.RFC3339Nano),
			TraceID:    s.Trace.ID.String(),
			Reason:     f.reason(s),
			DurationNS: s.Trace.Duration.Nanoseconds(),
			Attrs:      attrMap(s.Attrs),
			SpanTree:   spanTree(s.Trace.Root),
			Goroutines: s.Goroutines,
		}); err != nil {
			return err
		}
	}
	return nil
}
