package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceIDRoundTrip(t *testing.T) {
	id := NewTraceID()
	if id.IsZero() {
		t.Fatal("NewTraceID returned the zero ID")
	}
	s := id.String()
	if len(s) != 16 {
		t.Fatalf("trace id %q: want 16 hex digits", s)
	}
	back, err := ParseTraceID(s)
	if err != nil {
		t.Fatalf("ParseTraceID(%q): %v", s, err)
	}
	if back != id {
		t.Fatalf("round trip: got %s want %s", back, id)
	}
	for _, bad := range []string{"", "xyz", "0123456789abcde", "0123456789abcdeg", "0123456789abcdef0"} {
		if _, err := ParseTraceID(bad); err == nil {
			t.Errorf("ParseTraceID(%q) accepted a malformed id", bad)
		}
	}
}

func TestTraceIDUnique(t *testing.T) {
	seen := make(map[TraceID]bool)
	for i := 0; i < 10000; i++ {
		id := NewTraceID()
		if seen[id] {
			t.Fatalf("duplicate trace id %s after %d draws", id, i)
		}
		seen[id] = true
	}
}

// TestTracerRootsBounded pins the satellite fix: a long-lived process
// starting one root per request must not accumulate roots without
// bound. 10k starts on a small-cap tracer retain exactly the cap,
// newest last.
func TestTracerRootsBounded(t *testing.T) {
	tr := &Tracer{cap: 16}
	for i := 0; i < 10000; i++ {
		tr.Start(fmt.Sprintf("req%05d", i)).End()
	}
	roots := tr.Roots()
	if len(roots) != 16 {
		t.Fatalf("retained %d roots, want the cap of 16", len(roots))
	}
	if got := roots[len(roots)-1].Name(); got != "req09999" {
		t.Errorf("newest retained root = %s, want req09999", got)
	}
	if got := roots[0].Name(); got != "req09984" {
		t.Errorf("oldest retained root = %s, want req09984", got)
	}
	// The default constructor is bounded too. The spans are begun and
	// deliberately dropped: the assertion below is that the ring stays
	// bounded no matter how many roots are abandoned.
	def := NewTracer()
	for i := 0; i < 2*defaultTracerRoots; i++ {
		def.Start("r") //jem:nolint(spanend) bounding test leaks on purpose
	}
	if n := len(def.Roots()); n != defaultTracerRoots {
		t.Errorf("default tracer retained %d roots, want %d", n, defaultTracerRoots)
	}
}

func TestSpanAttrsAndAddTimed(t *testing.T) {
	s := NewSpan("request")
	s.SetAttr("reads", 100)
	s.SetAttr("index", "ecoli")
	s.SetAttr("reads", 200) // replaces
	c := s.AddTimed("read", 42*time.Millisecond)
	if !c.Ended() || c.Duration() != 42*time.Millisecond {
		t.Fatalf("AddTimed child: ended=%v dur=%v, want ended 42ms", c.Ended(), c.Duration())
	}
	s.End()

	attrs := s.Attrs()
	if len(attrs) != 2 {
		t.Fatalf("got %d attrs, want 2 (SetAttr must replace same-key)", len(attrs))
	}
	if attrs[0].Key != "reads" || attrs[0].Value != 200 {
		t.Errorf("attrs[0] = %+v, want reads=200", attrs[0])
	}

	var buf bytes.Buffer
	if err := RenderSpan(&buf, s, 0); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"reads=200", "index=ecoli", "read", "42ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered tree missing %q:\n%s", want, out)
		}
	}
}

// TestSpanConcurrentBuildRender hammers one span tree from parallel
// goroutines — children, attrs, AddTimed, End — while another
// goroutine renders it continuously. Run under -race this pins the
// satellite requirement that concurrent build and render are safe.
func TestSpanConcurrentBuildRender(t *testing.T) {
	root := NewSpan("request")
	stop := make(chan struct{})
	var renders sync.WaitGroup
	renders.Add(1)
	go func() {
		defer renders.Done()
		for {
			select {
			case <-stop:
				return
			default:
				var sink bytes.Buffer
				_ = RenderSpan(&sink, root, 0)
				_ = spanToJSON(root)
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c := root.Child(fmt.Sprintf("g%d.%d", g, i))
				c.SetAttr("i", i)
				c.AddTimed("sub", time.Microsecond)
				c.End()
				root.SetAttr(fmt.Sprintf("k%d", g), i)
			}
		}(g)
	}
	wg.Wait()
	root.End()
	close(stop)
	renders.Wait()
	if got := len(root.Children()); got != 8*200 {
		t.Fatalf("children = %d, want %d", got, 8*200)
	}
}

func mkTrace(status int, errMsg string, d time.Duration) *Trace {
	root := NewSpan("request")
	root.End()
	return &Trace{ID: NewTraceID(), Root: root, Status: status, Err: errMsg,
		Start: time.Now(), Duration: d}
}

func TestTraceRingTailSampling(t *testing.T) {
	// Sampling 1-in-1000 so ok-and-fast traces are effectively never
	// kept in a 200-trace test; errors and slow traces must be.
	r := NewTraceRing(64, 1000, 50*time.Millisecond)
	var errKept, slowKept, okKept int
	for i := 0; i < 200; i++ {
		switch {
		case i%50 == 7: // a few errors
			if r.Add(mkTrace(504, "deadline exceeded", time.Millisecond)) {
				errKept++
			}
		case i%50 == 9: // a few slow successes
			if r.Add(mkTrace(200, "", 80*time.Millisecond)) {
				slowKept++
			}
		default:
			if r.Add(mkTrace(200, "", time.Millisecond)) {
				okKept++
			}
		}
	}
	if errKept != 4 {
		t.Errorf("kept %d error traces, want all 4", errKept)
	}
	if slowKept != 4 {
		t.Errorf("kept %d slow traces, want all 4", slowKept)
	}
	if okKept != 0 {
		t.Errorf("kept %d ok-and-fast traces at 1-in-1000 sampling, want 0", okKept)
	}
	for _, tr := range r.Snapshot() {
		switch {
		case tr.Status >= 400 && tr.Kept != "error":
			t.Errorf("error trace kept as %q", tr.Kept)
		case tr.Status < 400 && tr.Kept != "slow":
			t.Errorf("slow trace kept as %q", tr.Kept)
		}
	}
}

func TestTraceRingBounded(t *testing.T) {
	r := NewTraceRing(8, 1, 0)
	for i := 0; i < 1000; i++ {
		r.Add(mkTrace(200, "", time.Millisecond))
	}
	if r.Len() != 8 {
		t.Fatalf("ring holds %d traces, want cap 8", r.Len())
	}
	if r.Seen() != 1000 || r.Kept() != 1000 {
		t.Errorf("seen=%d kept=%d, want 1000/1000 at sampleN=1", r.Seen(), r.Kept())
	}
}

func TestTraceRingP99Tail(t *testing.T) {
	// No slow threshold, heavy sampling: after enough fast traces the
	// p99 keep must still catch an outlier.
	r := NewTraceRing(64, 1_000_000, 0)
	for i := 0; i < 300; i++ {
		r.Add(mkTrace(200, "", time.Millisecond))
	}
	out := mkTrace(200, "", 2*time.Second)
	if !r.Add(out) {
		t.Fatal("p99 outlier was not kept")
	}
	if out.Kept != "p99" {
		t.Fatalf("outlier kept as %q, want p99", out.Kept)
	}
}

func TestTraceRingRenderings(t *testing.T) {
	r := NewTraceRing(8, 1, 0)
	tr := mkTrace(200, "", 3*time.Millisecond)
	tr.Root.SetAttr("reads", 5)
	tr.Root.AddTimed("read", time.Millisecond)
	r.Add(tr)
	if got := r.Find(tr.ID); got != tr {
		t.Fatal("Find did not return the retained trace")
	}
	if got := r.Find(NewTraceID()); got != nil {
		t.Fatal("Find returned a trace for an unknown ID")
	}

	var text bytes.Buffer
	if err := r.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{tr.ID.String(), "status=200", "kept=sampled", "reads=5"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text rendering missing %q:\n%s", want, text.String())
		}
	}

	var nd bytes.Buffer
	if err := r.WriteNDJSON(&nd); err != nil {
		t.Fatal(err)
	}
	var obj traceJSON
	if err := json.Unmarshal(nd.Bytes(), &obj); err != nil {
		t.Fatalf("NDJSON line does not parse: %v\n%s", err, nd.String())
	}
	if obj.TraceID != tr.ID.String() || obj.Status != 200 || obj.Root.Name != "request" {
		t.Errorf("NDJSON fields wrong: %+v", obj)
	}
	if len(obj.Root.Children) != 1 || obj.Root.Children[0].Name != "read" {
		t.Errorf("NDJSON children wrong: %+v", obj.Root.Children)
	}
}

func TestFlightRecorder(t *testing.T) {
	f := NewFlightRecorder(10*time.Millisecond, 4, 0)
	if f.Exceeded(5 * time.Millisecond) {
		t.Error("5ms exceeded a 10ms threshold")
	}
	if !f.Exceeded(20 * time.Millisecond) {
		t.Error("20ms did not exceed a 10ms threshold")
	}
	tr := mkTrace(200, "", 20*time.Millisecond)
	if !f.Capture(tr, []Attr{{Key: "inflight", Value: 3}}) {
		t.Fatal("capture refused with no rate limit")
	}
	snaps := f.Snapshots()
	if len(snaps) != 1 {
		t.Fatalf("got %d snapshots, want 1", len(snaps))
	}
	s := snaps[0]
	if s.TraceID != tr.ID || s.SpanTree == "" {
		t.Errorf("snapshot incomplete: %+v", s)
	}
	if !strings.Contains(s.Goroutines, "goroutine") {
		t.Errorf("snapshot carries no goroutine profile:\n%.200s", s.Goroutines)
	}

	var text bytes.Buffer
	if err := f.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{tr.ID.String(), "inflight: 3", "span tree"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("flight text missing %q", want)
		}
	}

	// Ring bound: 100 captures retain 4.
	for i := 0; i < 100; i++ {
		f.Capture(mkTrace(200, "", 20*time.Millisecond), nil)
	}
	if f.Len() != 4 {
		t.Errorf("flight ring holds %d, want cap 4", f.Len())
	}
}

func TestFlightRecorderRateLimit(t *testing.T) {
	f := NewFlightRecorder(time.Millisecond, 4, time.Hour)
	if !f.Capture(mkTrace(200, "", time.Second), nil) {
		t.Fatal("first capture refused")
	}
	if f.Capture(mkTrace(200, "", time.Second), nil) {
		t.Fatal("second capture inside the gap was not suppressed")
	}
	if f.Suppressed() != 1 || f.Captures() != 1 {
		t.Errorf("captures=%d suppressed=%d, want 1/1", f.Captures(), f.Suppressed())
	}
}

func TestFlightRecorderDisabled(t *testing.T) {
	f := NewFlightRecorder(0, 4, 0)
	if f.Exceeded(time.Hour) {
		t.Error("threshold 0 must disable Exceeded")
	}
}

func TestRequestLogSamplingAndBound(t *testing.T) {
	var lines bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&lines, nil))
	// Sample 1-in-10 ok lines; errors always emit; ring holds 32.
	l := NewRequestLog(logger, 10, 32, 50*time.Millisecond)
	for i := 0; i < 100; i++ {
		l.Record(context.Background(), RequestLogEntry{Time: time.Now(), TraceID: NewTraceID(),
			Status: 200, Reads: 1, Duration: time.Millisecond})
	}
	l.Record(context.Background(), RequestLogEntry{Time: time.Now(), TraceID: NewTraceID(),
		Status: 504, Err: "deadline", Duration: time.Millisecond})
	l.Record(context.Background(), RequestLogEntry{Time: time.Now(), TraceID: NewTraceID(),
		Status: 200, Duration: 80 * time.Millisecond}) // slow → always emitted

	if l.Len() != 32 {
		t.Errorf("ring holds %d entries, want cap 32", l.Len())
	}
	// 10 sampled ok lines + 1 error + 1 slow.
	emitted := strings.Count(lines.String(), "\n")
	if emitted != 12 {
		t.Errorf("slog emitted %d lines, want 12", emitted)
	}
	if !strings.Contains(lines.String(), `"status":504`) {
		t.Error("error line was not emitted")
	}

	var nd bytes.Buffer
	if err := l.WriteNDJSON(&nd); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(nd.String(), "\n"); got != 32 {
		t.Errorf("NDJSON rendered %d lines, want 32", got)
	}
	var obj reqLogJSON
	if err := json.Unmarshal([]byte(strings.SplitN(nd.String(), "\n", 2)[0]), &obj); err != nil {
		t.Fatalf("NDJSON line does not parse: %v", err)
	}
}

func TestRequestLogNilLogger(t *testing.T) {
	l := NewRequestLog(nil, 1, 8, 0)
	l.Record(context.Background(), RequestLogEntry{Status: 500, Err: "boom"})
	if l.Len() != 1 {
		t.Error("ring must retain entries even without a logger")
	}
}

// ctxCapturingHandler records the context each slog record arrives
// with, so tests can prove what Record hands the handler.
type ctxCapturingHandler struct {
	mu   sync.Mutex
	ctxs []context.Context
}

func (h *ctxCapturingHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h *ctxCapturingHandler) Handle(ctx context.Context, _ slog.Record) error {
	h.mu.Lock()
	h.ctxs = append(h.ctxs, ctx)
	h.mu.Unlock()
	return nil
}
func (h *ctxCapturingHandler) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h *ctxCapturingHandler) WithGroup(string) slog.Handler      { return h }

// TestRequestLogRecordPassesCallerContext is the regression test for
// the detached-context fix: Record used to log with a fresh
// context.Background(), dropping any request-scoped correlation the
// slog handler could have read. It must hand the handler the caller's
// context — including one whose cancellation was stripped with
// context.WithoutCancel after the request finished.
func TestRequestLogRecordPassesCallerContext(t *testing.T) {
	type key struct{}
	h := &ctxCapturingHandler{}
	l := NewRequestLog(slog.New(h), 1, 8, 0)

	reqCtx, cancel := context.WithCancel(context.WithValue(context.Background(), key{}, "req-77"))
	logCtx := context.WithoutCancel(reqCtx)
	cancel() // request finished before its log line was emitted

	l.Record(logCtx, RequestLogEntry{Status: 200})

	if len(h.ctxs) != 1 {
		t.Fatalf("handler saw %d records, want 1", len(h.ctxs))
	}
	got := h.ctxs[0]
	if v, _ := got.Value(key{}).(string); v != "req-77" {
		t.Errorf("handler ctx lost the request value: got %q, want \"req-77\"", v)
	}
	if err := got.Err(); err != nil {
		t.Errorf("handler ctx is canceled (%v); WithoutCancel should have stripped that", err)
	}
}
