package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// defaultTracerRoots is how many root span trees a Tracer retains.
// Build/load/save spans and per-rank distributed spans arrive at a few
// per run, so 256 covers many runs of history; what matters is that a
// long-lived process (jem-serve) cannot accumulate roots without
// bound — before the cap, every request-scoped root leaked forever.
const defaultTracerRoots = 256

// Tracer records trees of named phase spans. It is safe for
// concurrent use: the distributed driver starts one root per rank
// from parallel goroutines, and each goroutine then nests children
// under its own root.
//
// Retention is bounded: once the root ring is full, starting a new
// root evicts the oldest one. Completed request traces that need
// richer retention policy live in a TraceRing instead; the Tracer ring
// is the keep-the-recent-history view rendered on /statusz.
type Tracer struct {
	mu    sync.Mutex
	roots ring[*Span]
}

// NewTracer creates an empty tracer with the default root retention.
func NewTracer() *Tracer { return &Tracer{roots: newRing[*Span](defaultTracerRoots)} }

// Start begins a root span. End it with Span.End. Once the tracer
// holds its retention cap of roots, the oldest is evicted.
func (t *Tracer) Start(name string) *Span {
	s := &Span{name: name, start: time.Now()}
	t.mu.Lock()
	t.roots.push(s)
	t.mu.Unlock()
	return s
}

// Roots returns a snapshot of the retained root spans in start order.
func (t *Tracer) Roots() []*Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.roots.snapshot()
}

// Attr is one key/value annotation on a span: run stats, shard ids,
// statuses — whatever attributes the phase with context.
type Attr struct {
	Key   string
	Value any
}

// Span is one timed phase. Spans are safe for concurrent use: a
// goroutine may End a span while another renders the tree, and
// children of one parent may be created from multiple goroutines.
type Span struct {
	name  string
	start time.Time

	mu       sync.Mutex
	d        time.Duration
	ended    bool
	children []*Span
	attrs    []Attr
}

// NewSpan begins a standalone root span outside any Tracer — the form
// request-scoped tracing uses, where retention is the TraceRing's job
// and tying the span to the process-wide tracer would double-retain.
func NewSpan(name string) *Span {
	return &Span{name: name, start: time.Now()}
}

// Name returns the span's name.
func (s *Span) Name() string { return s.name }

// Child begins a nested span under s.
func (s *Span) Child(name string) *Span {
	c := &Span{name: name, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// AddTimed attaches an already-measured phase as an ended child span
// of duration d. Pipelined phases (read/sketch/gather/write overlap
// in wall time) are measured as per-phase wall accumulators while the
// run executes; AddTimed is how those totals become spans in the
// request's tree after the run completes.
func (s *Span) AddTimed(name string, d time.Duration) *Span {
	c := &Span{name: name, start: time.Now().Add(-d), d: d, ended: true}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// SetAttr sets a key/value attribute on the span, replacing any
// earlier value for the same key.
func (s *Span) SetAttr(key string, value any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// Attrs returns a snapshot of the span's attributes in set order.
func (s *Span) Attrs() []Attr {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Attr(nil), s.attrs...)
}

// End closes the span and returns its duration. End is idempotent;
// the first call wins.
func (s *Span) End() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		s.d = time.Since(s.start)
		s.ended = true
	}
	return s.d
}

// Ended reports whether End has been called.
func (s *Span) Ended() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ended
}

// Duration returns the span's length: its final duration once ended,
// or the elapsed time so far while still open.
func (s *Span) Duration() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return s.d
	}
	return time.Since(s.start)
}

// Children returns a snapshot of the nested spans in start order.
func (s *Span) Children() []*Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Time runs fn inside a child span of s — the convenience form for
// phase-timing a function call.
func (s *Span) Time(name string, fn func()) time.Duration {
	c := s.Child(name)
	fn()
	return c.End()
}

// Render writes the span forest as an indented tree, one span per
// line with its duration and attributes, e.g.
//
//	rank00            12.1ms
//	  sketch           8.0ms
//	  gather           1.2ms  shards=4
//	  map              2.9ms
func (t *Tracer) Render(w io.Writer) error {
	for _, root := range t.Roots() {
		if err := RenderSpan(w, root, 0); err != nil {
			return err
		}
	}
	return nil
}

// RenderSpan writes one span subtree as an indented text tree rooted
// at depth — shared by the tracer's /statusz rendering and the trace
// ring's /debug/traces rendering.
func RenderSpan(w io.Writer, s *Span, depth int) error {
	if _, err := fmt.Fprintf(w, "%*s%-*s %v%s\n", 2*depth, "", 24-2*depth, s.name,
		s.Duration().Round(time.Microsecond), attrSuffix(s.Attrs())); err != nil {
		return err
	}
	for _, c := range s.Children() {
		if err := RenderSpan(w, c, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// attrSuffix renders a span's attributes as "  k=v k=v" (empty when
// there are none).
func attrSuffix(attrs []Attr) string {
	if len(attrs) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString(" ")
	for _, a := range attrs {
		fmt.Fprintf(&b, " %s=%v", a.Key, a.Value)
	}
	return b.String()
}
