package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
)

var traceIDRe = regexp.MustCompile(`^[0-9a-f]{16}$`)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return resp.StatusCode, string(b)
}

// TestTraceIDHeaderOnEveryPath pins the header contract: every
// response from /v1/map carries an X-JEM-Trace-Id — success, unknown
// index, bad parameters, and deadline kills alike — and a
// client-supplied ID is echoed back.
func TestTraceIDHeaderOnEveryPath(t *testing.T) {
	w := getWorld(t)
	_, ts := newTestServer(t, serve.Config{})

	cases := []struct {
		name   string
		url    string
		status int
	}{
		{"success", ts.URL + "/v1/map/asm", http.StatusOK},
		{"unknown index", ts.URL + "/v1/map/nosuch", http.StatusNotFound},
		{"bad format", ts.URL + "/v1/map/asm?format=xml", http.StatusBadRequest},
		{"bad timeout", ts.URL + "/v1/map/asm?timeout=banana", http.StatusBadRequest},
		{"deadline", ts.URL + "/v1/map/asm?timeout=1ns", http.StatusGatewayTimeout},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postReads(t, tc.url, w.fastq)
			io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.status)
			}
			id := resp.Header.Get("X-JEM-Trace-Id")
			if !traceIDRe.MatchString(id) {
				t.Errorf("X-JEM-Trace-Id = %q, want 16 hex digits", id)
			}
		})
	}

	t.Run("client-supplied id echoed", func(t *testing.T) {
		const want = "deadbeef01234567"
		req, err := http.NewRequest("POST", ts.URL+"/v1/map/asm", bytes.NewReader(w.fastq))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-JEM-Trace-Id", want)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if got := resp.Header.Get("X-JEM-Trace-Id"); got != want {
			t.Errorf("X-JEM-Trace-Id = %q, want the client's %q echoed", got, want)
		}
	})
}

// TestTraceRetrievable drives one request end to end and pulls its
// span tree back out of /debug/traces: per-phase children, per-shard
// gather timings, run stats as attributes — in both the text and the
// NDJSON rendering.
func TestTraceRetrievable(t *testing.T) {
	w := getWorld(t)
	// Every request is slow at a 1ns threshold, so the ring keeps this
	// one whatever its 1-in-N sampling of ok-and-fast traces would do.
	_, ts := newTestServer(t, serve.Config{SlowRequest: time.Nanosecond})

	const id = "feedface87654321"
	req, err := http.NewRequest("POST", ts.URL+"/v1/map/asm", bytes.NewReader(w.fastq))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-JEM-Trace-Id", id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("map status = %d", resp.StatusCode)
	}

	status, text := get(t, ts.URL+"/debug/traces?id="+id)
	if status != http.StatusOK {
		t.Fatalf("/debug/traces?id: status %d: %s", status, text)
	}
	for _, want := range []string{
		"trace " + id, "request", "admission", "read", "sketch",
		"gather", "shard00", "shard03", "write", "postings=",
		"index=asm", "status=200",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("trace text missing %q:\n%s", want, text)
		}
	}

	status, js := get(t, ts.URL+"/debug/traces?id="+id+"&format=json")
	if status != http.StatusOK {
		t.Fatalf("/debug/traces json: status %d", status)
	}
	var tj struct {
		TraceID string `json:"trace_id"`
		Status  int    `json:"status"`
		Root    struct {
			Name     string `json:"name"`
			Children []struct {
				Name string `json:"name"`
			} `json:"children"`
		} `json:"root"`
	}
	if err := json.Unmarshal([]byte(js), &tj); err != nil {
		t.Fatalf("parsing trace JSON: %v\n%s", err, js)
	}
	if tj.TraceID != id || tj.Status != 200 || tj.Root.Name != "request" {
		t.Errorf("trace JSON header wrong: %+v", tj)
	}
	names := map[string]bool{}
	for _, c := range tj.Root.Children {
		names[c.Name] = true
	}
	for _, want := range []string{"admission", "read", "sketch", "gather", "write"} {
		if !names[want] {
			t.Errorf("trace JSON missing child %q (have %v)", want, names)
		}
	}

	// The full listing includes the trace too.
	if _, all := get(t, ts.URL+"/debug/traces"); !strings.Contains(all, id) {
		t.Error("/debug/traces listing missing the trace")
	}
	// An unknown ID is a 404, not an empty page.
	if status, _ := get(t, ts.URL+"/debug/traces?id=0000000000000000"); status != http.StatusNotFound {
		t.Errorf("unknown trace id: status %d, want 404", status)
	}
}

// TestSlowRequestFlightRecorder sets a slow threshold every mapping
// request exceeds and asserts the flight recorder captures the
// request: goroutine profile, span tree, admission state — and that
// the trace ring keeps the request as slow.
func TestSlowRequestFlightRecorder(t *testing.T) {
	w := getWorld(t)
	_, ts := newTestServer(t, serve.Config{SlowRequest: time.Microsecond})

	const id = "ca11ab1e5caff01d"
	req, err := http.NewRequest("POST", ts.URL+"/v1/map/asm", bytes.NewReader(w.fastq))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-JEM-Trace-Id", id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("map status = %d", resp.StatusCode)
	}

	status, flight := get(t, ts.URL+"/debug/flight")
	if status != http.StatusOK {
		t.Fatalf("/debug/flight: status %d", status)
	}
	for _, want := range []string{
		"trace=" + id, "exceeded slow threshold",
		"--- span tree", "request", "--- goroutines", "goroutine",
		"inflight:", "queued:",
	} {
		if !strings.Contains(flight, want) {
			t.Errorf("/debug/flight missing %q:\n%.2000s", want, flight)
		}
	}

	_, js := get(t, ts.URL+"/debug/flight?format=json")
	var fj struct {
		TraceID    string `json:"trace_id"`
		Goroutines string `json:"goroutines"`
	}
	if err := json.Unmarshal([]byte(strings.SplitN(js, "\n", 2)[0]), &fj); err != nil {
		t.Fatalf("parsing flight JSON: %v", err)
	}
	if fj.TraceID != id || !strings.Contains(fj.Goroutines, "goroutine") {
		t.Errorf("flight JSON wrong: trace=%s", fj.TraceID)
	}

	// The same request was tail-kept as slow in the trace ring.
	_, tr := get(t, ts.URL+"/debug/traces?id="+id)
	if !strings.Contains(tr, "kept=slow") {
		t.Errorf("slow request not kept as slow:\n%s", tr)
	}
}

// TestRequestLogEmitted wires a slog JSON logger into the server and
// asserts one structured line per request lands in it, and that
// /debug/requests serves the ringed NDJSON with the phase breakdown.
func TestRequestLogEmitted(t *testing.T) {
	w := getWorld(t)
	var logBuf syncBuffer
	logger := slog.New(slog.NewJSONHandler(&logBuf, nil))
	_, ts := newTestServer(t, serve.Config{Logger: logger})

	const id = "0123456789abcdef"
	req, err := http.NewRequest("POST", ts.URL+"/v1/map/asm", bytes.NewReader(w.fastq))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-JEM-Trace-Id", id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()

	logged := logBuf.String()
	for _, want := range []string{`"msg":"map request"`, `"trace_id":"` + id + `"`, `"index":"asm"`, `"status":200`} {
		if !strings.Contains(logged, want) {
			t.Errorf("request log missing %s:\n%s", want, logged)
		}
	}

	_, nd := get(t, ts.URL+"/debug/requests")
	var entry struct {
		TraceID    string `json:"trace_id"`
		Status     int    `json:"status"`
		Reads      int    `json:"reads"`
		MapWallNS  int64  `json:"map_wall_ns"`
		DurationNS int64  `json:"duration_ns"`
	}
	if err := json.Unmarshal([]byte(strings.SplitN(nd, "\n", 2)[0]), &entry); err != nil {
		t.Fatalf("parsing /debug/requests: %v\n%s", err, nd)
	}
	if entry.TraceID != id || entry.Status != 200 || entry.Reads == 0 || entry.DurationNS <= 0 {
		t.Errorf("/debug/requests entry wrong: %+v", entry)
	}

	// Failed requests log at warning/error level with the error text.
	resp = postReads(t, ts.URL+"/v1/map/asm?timeout=1ns", w.fastq)
	io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if !strings.Contains(logBuf.String(), "deadline exceeded") {
		t.Error("request log missing the deadline error line")
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for the slog handler
// (requests log from handler goroutines while the test reads).
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestObsSoakBounded is the memory-bound acceptance test: thousands of
// requests through one server, then every retention surface — trace
// ring, request-log ring, flight ring — must still be at or under its
// bound, and the request log must have emitted one line per request.
func TestObsSoakBounded(t *testing.T) {
	w := getWorld(t)
	var logBuf syncBuffer
	cfg := serve.Config{
		SlowRequest: 30 * time.Second, // nothing here is slow
		Logger:      slog.New(slog.NewJSONHandler(&logBuf, nil)),
		MaxInFlight: 8,
		MaxQueue:    1024,
	}
	_, ts := newTestServer(t, cfg)

	// One-read FASTQ body: small enough that 10k requests stay fast.
	r0 := w.ds.Reads[0]
	body := []byte(fmt.Sprintf("@%s\n%s\n+\n%s\n", r0.ID, r0.Seq, strings.Repeat("I", len(r0.Seq))))

	n := 10_000
	if testing.Short() {
		n = 1_000
	}
	const clients = 8
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += clients {
				resp, err := http.Post(ts.URL+"/v1/map/asm", "application/octet-stream", bytes.NewReader(body))
				if err != nil {
					errc <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("request %d: status %d", i, resp.StatusCode)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	_, traces := get(t, ts.URL+"/debug/traces")
	var retained, seen, kept int
	if _, err := fmt.Sscanf(traces, "# %d traces retained of %d seen (%d kept by policy)",
		&retained, &seen, &kept); err != nil {
		t.Fatalf("parsing /debug/traces header: %v\n%.200s", err, traces)
	}
	if retained > serve.TraceRingSize {
		t.Errorf("trace ring retained %d > cap %d", retained, serve.TraceRingSize)
	}
	if seen < n {
		t.Errorf("trace ring saw %d requests, want ≥ %d", seen, n)
	}
	if kept >= seen {
		t.Errorf("sampling kept everything (%d of %d) at 1-in-%d", kept, seen, serve.TraceSampleN)
	}

	_, nd := get(t, ts.URL+"/debug/requests")
	if lines := strings.Count(nd, "\n"); lines > serve.RequestLogSize {
		t.Errorf("/debug/requests has %d lines > ring cap %d", lines, serve.RequestLogSize)
	}
	if emitted := strings.Count(logBuf.String(), "\n"); emitted != n {
		t.Errorf("slog emitted %d lines for %d requests, want one per request", emitted, n)
	}

	_, flight := get(t, ts.URL+"/debug/flight")
	var snaps int
	if _, err := fmt.Sscanf(flight, "# %d flight snapshots retained", &snaps); err != nil {
		t.Fatalf("parsing /debug/flight header: %v\n%.200s", err, flight)
	}
	if snaps > serve.FlightRingSize {
		t.Errorf("flight ring retained %d > cap %d", snaps, serve.FlightRingSize)
	}
	if strings.Contains(flight, "exceeded slow threshold") {
		t.Error("flight recorder captured fast requests")
	}
}
