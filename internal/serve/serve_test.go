package serve_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/serve"
)

// testWorld builds the shared fixture once per test binary: a small
// synthesized dataset, a mapper over its contigs, the FASTQ bytes of
// its reads, and the TSV the CLI path produces for them — the
// byte-identity reference every server response is held against.
type testWorld struct {
	ds        *jem.Dataset
	opts      jem.Options
	fastq     []byte
	expectTSV []byte
}

var (
	worldOnce sync.Once
	world     *testWorld
	worldErr  error
)

func getWorld(t *testing.T) *testWorld {
	t.Helper()
	worldOnce.Do(func() {
		ds, err := jem.Synthesize(jem.SynthesisConfig{
			Name:           "servetest",
			GenomeLength:   200_000,
			RepeatFraction: 0.05,
			HiFiCoverage:   3,
			HiFiMedianLen:  8000,
			ShortCoverage:  25,
			Seed:           7,
		})
		if err != nil {
			worldErr = err
			return
		}
		var fastq bytes.Buffer
		for _, r := range ds.Reads {
			fmt.Fprintf(&fastq, "@%s\n%s\n+\n%s\n", r.ID, r.Seq, strings.Repeat("I", len(r.Seq)))
		}
		opts := jem.DefaultOptions()
		opts.Shards = 4
		mapper, err := jem.NewMapper(ds.Contigs, opts)
		if err != nil {
			worldErr = err
			return
		}
		var expect bytes.Buffer
		if _, err := mapper.Stream(context.Background(), bytes.NewReader(fastq.Bytes()), &expect, jem.StreamOptions{}); err != nil {
			worldErr = err
			return
		}
		world = &testWorld{ds: ds, opts: opts, fastq: fastq.Bytes(), expectTSV: expect.Bytes()}
	})
	if worldErr != nil {
		t.Fatalf("building test world: %v", worldErr)
	}
	return world
}

// newTestServer builds a serve.Server with one index named "asm" over
// the shared dataset and returns it with its httptest frontend.
func newTestServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	w := getWorld(t)
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	opts := w.opts
	opts.Metrics = cfg.Registry
	mapper, err := jem.NewMapper(w.ds.Contigs, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := serve.New(cfg)
	s.AddIndex("asm", mapper)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postReads(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return b
}

// TestServeConcurrentByteIdentical is the core serving contract:
// concurrent mapping requests all succeed and every response is
// byte-identical to what the jem-mapper CLI streaming path writes for
// the same input.
func TestServeConcurrentByteIdentical(t *testing.T) {
	w := getWorld(t)
	_, ts := newTestServer(t, serve.Config{MaxInFlight: 4, MaxQueue: 64})

	const clients = 12
	var wg sync.WaitGroup
	bodies := make([][]byte, clients)
	statuses := make([]int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/map/asm", "application/octet-stream", bytes.NewReader(w.fastq))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			statuses[i] = resp.StatusCode
			bodies[i], _ = io.ReadAll(resp.Body)
			_ = resp.Body.Close()
		}(i)
	}
	wg.Wait()
	for i := 0; i < clients; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("client %d: status %d, body: %.200s", i, statuses[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], w.expectTSV) {
			t.Errorf("client %d: response differs from CLI TSV (%d vs %d bytes)", i, len(bodies[i]), len(w.expectTSV))
		}
	}
}

// TestServeStatsHeadersAndJSON covers the NDJSON transcoding and the
// per-run stats headers on atomic responses.
func TestServeStatsHeadersAndJSON(t *testing.T) {
	w := getWorld(t)
	_, ts := newTestServer(t, serve.Config{})

	resp := postReads(t, ts.URL+"/v1/map?format=json", w.fastq)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %.200s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", got)
	}
	if reads := resp.Header.Get("X-JEM-Reads"); reads != fmt.Sprint(len(w.ds.Reads)) {
		t.Errorf("X-JEM-Reads = %q, want %d", reads, len(w.ds.Reads))
	}
	lines := bytes.Split(bytes.TrimSpace(body), []byte{'\n'})
	wantRows := len(bytes.Split(bytes.TrimSpace(w.expectTSV), []byte{'\n'})) - 1 // minus TSV header
	if len(lines) != wantRows {
		t.Fatalf("NDJSON rows = %d, want %d", len(lines), wantRows)
	}
	for _, ln := range lines {
		var row struct {
			ReadID string `json:"read_id"`
			End    string `json:"end"`
			Mapped bool   `json:"mapped"`
		}
		if err := json.Unmarshal(ln, &row); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", ln, err)
		}
		if row.ReadID == "" || (row.End != "prefix" && row.End != "suffix") {
			t.Fatalf("implausible row %q", ln)
		}
	}
}

// TestServeDeadline pins the partial-free deadline contract: a request
// whose deadline fires before the response commits returns 504 with no
// mapping rows, and the deadline counter moves.
func TestServeDeadline(t *testing.T) {
	w := getWorld(t)
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, serve.Config{Registry: reg})

	resp := postReads(t, ts.URL+"/v1/map/asm?timeout=1ns", w.fastq)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body: %.200s", resp.StatusCode, body)
	}
	if bytes.Contains(body, []byte("read_id\t")) || bytes.Contains(body, []byte("\tprefix\t")) {
		t.Errorf("504 body contains partial mapping rows: %.200s", body)
	}
	if got := reg.Snapshot()["jem_serve_deadline_total"]; got != 1 {
		t.Errorf("jem_serve_deadline_total = %v, want 1", got)
	}
}

// TestServeAdmissionControl pins the 429 overflow contract with a
// one-slot, zero-queue server: while one request holds the slot, the
// next is rejected immediately with Retry-After.
func TestServeAdmissionControl(t *testing.T) {
	w := getWorld(t)
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, serve.Config{MaxInFlight: 1, MaxQueue: 1, Registry: reg})

	// Hold the only slot with a request whose body we dribble in.
	pr, pw := io.Pipe()
	headerDone := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/map/asm", "application/octet-stream", pr)
		if err == nil {
			headerDone <- resp
		} else {
			t.Error(err)
			headerDone <- nil
		}
	}()
	// First record unblocks admission inside the handler; the stream
	// then waits for more body, keeping the slot held.
	first := bytes.Index(w.fastq[1:], []byte("\n@")) + 1
	if _, err := pw.Write(w.fastq[:first]); err != nil {
		t.Fatal(err)
	}

	// The slot is taken (single in-flight). The queue absorbs one
	// waiter; rejection needs the queue full too, so fire two
	// concurrent probes — at least one must see 429.
	deadline := time.Now().Add(5 * time.Second)
	got429 := false
	for !got429 && time.Now().Before(deadline) {
		var wg sync.WaitGroup
		codes := make([]int, 2)
		for i := range codes {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, err := http.Post(ts.URL+"/v1/map/asm?timeout=100ms", "application/octet-stream", bytes.NewReader(w.fastq))
				if err != nil {
					return
				}
				io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close()
				codes[i] = resp.StatusCode
			}(i)
		}
		wg.Wait()
		for _, c := range codes {
			if c == http.StatusTooManyRequests {
				got429 = true
			}
		}
	}
	if !got429 {
		t.Error("never observed a 429 with MaxInFlight=1, MaxQueue=1")
	}
	if got := reg.Snapshot()["jem_serve_rejected_total"]; got < 1 {
		t.Errorf("jem_serve_rejected_total = %v, want ≥ 1", got)
	}

	// Release the held slot; the pinned request must still complete.
	if _, err := pw.Write(w.fastq[first:]); err != nil {
		t.Fatal(err)
	}
	_ = pw.Close()
	resp := <-headerDone
	if resp == nil {
		t.Fatal("held request failed")
	}
	b := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("held request: status %d: %.200s", resp.StatusCode, b)
	}
	if !bytes.Equal(b, w.expectTSV) {
		t.Error("held request output differs from CLI TSV")
	}
}

// TestServeHotSwapUnderLoad drives continuous mapping traffic while
// the index is hot-swapped from a saved index file. Zero requests may
// fail, every response stays byte-identical (the swapped index is
// built from the same contigs), and the generation must advance.
func TestServeHotSwapUnderLoad(t *testing.T) {
	w := getWorld(t)
	reg := obs.NewRegistry()
	srv, ts := newTestServer(t, serve.Config{MaxInFlight: 4, MaxQueue: 64, Registry: reg})
	_ = srv

	// Save an identical index to swap in.
	opts := w.opts
	mapper, err := jem.NewMapper(w.ds.Contigs, opts)
	if err != nil {
		t.Fatal(err)
	}
	idxPath := filepath.Join(t.TempDir(), "asm.jemidx")
	if err := mapper.SaveIndexFile(idxPath); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var failures []string
	requests := 0
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v1/map/asm", "application/octet-stream", bytes.NewReader(w.fastq))
				if err != nil {
					mu.Lock()
					failures = append(failures, err.Error())
					mu.Unlock()
					continue
				}
				body, _ := io.ReadAll(resp.Body)
				_ = resp.Body.Close()
				mu.Lock()
				requests++
				if resp.StatusCode != http.StatusOK {
					failures = append(failures, fmt.Sprintf("status %d: %.100s", resp.StatusCode, body))
				} else if !bytes.Equal(body, w.expectTSV) {
					failures = append(failures, "response bytes differ")
				}
				mu.Unlock()
			}
		}()
	}

	// Let traffic build, then swap twice mid-flight.
	time.Sleep(200 * time.Millisecond)
	for swapN := 0; swapN < 2; swapN++ {
		reqBody, _ := json.Marshal(map[string]any{"index_path": idxPath, "drain_timeout": "10s"})
		resp, err := http.Post(ts.URL+"/v1/indexes/asm/swap", "application/json", bytes.NewReader(reqBody))
		if err != nil {
			t.Fatalf("swap %d: %v", swapN, err)
		}
		var sr struct {
			Generation int64 `json:"generation"`
			Drained    bool  `json:"drained"`
		}
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("swap %d: status %d: %s", swapN, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatalf("swap %d: bad response %s: %v", swapN, body, err)
		}
		if want := int64(swapN + 2); sr.Generation != want {
			t.Errorf("swap %d: generation = %d, want %d", swapN, sr.Generation, want)
		}
		if !sr.Drained {
			t.Errorf("swap %d: old generation did not drain", swapN)
		}
		time.Sleep(100 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if len(failures) > 0 {
		t.Fatalf("%d/%d requests failed across hot-swaps; first: %s", len(failures), requests, failures[0])
	}
	if requests == 0 {
		t.Fatal("no requests completed during the swap window")
	}
	if got := reg.Snapshot()["jem_serve_index_swaps_total"]; got != 2 {
		t.Errorf("jem_serve_index_swaps_total = %v, want 2", got)
	}
}

// TestServeFaultInjection proves injected faults surface as 5xx with
// the relevant counters moving, and that the server keeps serving
// afterwards.
func TestServeFaultInjection(t *testing.T) {
	w := getWorld(t)
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, serve.Config{Registry: reg})

	t.Run("worker.panic", func(t *testing.T) {
		fault.Set(fault.WorkerPanic, fault.Spec{})
		defer fault.Reset()
		resp := postReads(t, ts.URL+"/v1/map/asm", w.fastq)
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("status = %d, want 500; body: %.200s", resp.StatusCode, body)
		}
		if bytes.Contains(body, []byte("\tprefix\t")) {
			t.Error("500 body contains partial mapping rows")
		}
		snap := reg.Snapshot()
		if snap["jem_stream_worker_panics_total"] < 1 {
			t.Errorf("jem_stream_worker_panics_total = %v, want ≥ 1", snap["jem_stream_worker_panics_total"])
		}
		if snap["jem_serve_errors_total"] < 1 {
			t.Errorf("jem_serve_errors_total = %v, want ≥ 1", snap["jem_serve_errors_total"])
		}
	})

	t.Run("writer.enospc", func(t *testing.T) {
		fault.Set(fault.WriterENOSPC, fault.Spec{})
		defer fault.Reset()
		resp := postReads(t, ts.URL+"/v1/map/asm", w.fastq)
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("status = %d, want 500; body: %.200s", resp.StatusCode, body)
		}
		if !bytes.Contains(body, []byte("mapping failed")) {
			t.Errorf("500 body does not explain the failure: %.200s", body)
		}
	})

	t.Run("bad records quarantine-free skip", func(t *testing.T) {
		fault.Reset()
		// Splice a malformed record in front of valid FASTQ; with
		// on_bad_record=skip the run succeeds and the counter moves.
		input := append([]byte("@broken\nACGT\n+\nII\n"), w.fastq...)
		resp := postReads(t, ts.URL+"/v1/map/asm?on_bad_record=skip", input)
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d: %.200s", resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-JEM-Bad-Records"); got != "1" {
			t.Errorf("X-JEM-Bad-Records = %q, want 1", got)
		}
		if got := reg.Snapshot()["jem_stream_bad_records_total"]; got < 1 {
			t.Errorf("jem_stream_bad_records_total = %v, want ≥ 1", got)
		}
	})

	// The server survived every injected failure.
	resp := postReads(t, ts.URL+"/v1/map/asm", w.fastq)
	if body := readBody(t, resp); resp.StatusCode != http.StatusOK || !bytes.Equal(body, w.expectTSV) {
		t.Fatalf("post-fault request: status %d, identical=%v", resp.StatusCode, bytes.Equal(body, w.expectTSV))
	}
}

// TestServeIndexesAndHealth covers the listing (memory accounting
// included), health and readiness endpoints, and /metrics mounting.
func TestServeIndexesAndHealth(t *testing.T) {
	w := getWorld(t)
	reg := obs.NewRegistry()
	srv, ts := newTestServer(t, serve.Config{Registry: reg})

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp, readBody(t, resp)
	}

	resp, body := get("/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", resp.StatusCode)
	}
	resp, _ = get("/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("readyz: %d", resp.StatusCode)
	}

	resp, body = get("/v1/indexes")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("indexes: %d", resp.StatusCode)
	}
	var listing struct {
		Indexes []struct {
			Name       string `json:"name"`
			Contigs    int    `json:"contigs"`
			Shards     int    `json:"shards"`
			IndexBytes int64  `json:"index_bytes"`
			Generation int64  `json:"generation"`
			Params     struct {
				K int `json:"k"`
			} `json:"params"`
		} `json:"indexes"`
		TotalBytes int64 `json:"total_index_bytes"`
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatalf("bad listing %s: %v", body, err)
	}
	if len(listing.Indexes) != 1 {
		t.Fatalf("listing has %d indexes, want 1", len(listing.Indexes))
	}
	ix := listing.Indexes[0]
	if ix.Name != "asm" || ix.Contigs != len(w.ds.Contigs) || ix.Shards != 4 || ix.Params.K != 16 {
		t.Errorf("listing entry off: %+v", ix)
	}
	if ix.IndexBytes <= 0 || listing.TotalBytes != ix.IndexBytes {
		t.Errorf("memory accounting off: index=%d total=%d", ix.IndexBytes, listing.TotalBytes)
	}

	// A mapped request then shows up in /metrics, mounted on this mux.
	_ = postReads(t, ts.URL+"/v1/map/asm", w.fastq).Body.Close()
	_, metrics := get("/metrics")
	for _, want := range []string{"jem_serve_requests_total", "jem_serve_inflight", "jem_stream_reads_total", "jem_serve_index_bytes"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}

	// Draining flips readyz only.
	srv.BeginDrain()
	resp, _ = get("/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining: %d, want 503", resp.StatusCode)
	}
	resp, _ = get("/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz while draining: %d, want 200", resp.StatusCode)
	}
	_ = body
}

// TestServeUnknownIndex pins the 404 path and the multi-index
// disambiguation error.
func TestServeUnknownIndex(t *testing.T) {
	w := getWorld(t)
	srv, ts := newTestServer(t, serve.Config{})

	resp := postReads(t, ts.URL+"/v1/map/nope", w.fastq)
	readBody(t, resp)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown index: %d, want 404", resp.StatusCode)
	}

	// With two indexes, the bare endpoint must demand a name.
	opts := w.opts
	m2, err := jem.NewMapper(w.ds.Contigs, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv.AddIndex("second", m2)
	resp = postReads(t, ts.URL+"/v1/map", w.fastq)
	readBody(t, resp)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("ambiguous index: %d, want 404", resp.StatusCode)
	}
}

// TestServeGzipBody maps a gzip-compressed request body — every real
// read set ships compressed.
func TestServeGzipBody(t *testing.T) {
	w := getWorld(t)
	_, ts := newTestServer(t, serve.Config{})

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(w.fastq); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest("POST", ts.URL+"/v1/map/asm", &gz)
	req.Header.Set("Content-Encoding", "gzip")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %.200s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, w.expectTSV) {
		t.Error("gzip request output differs from CLI TSV")
	}
}

// TestServeMemoryAccounting: the serving tier's out-of-core surface.
// Swapping in an mmap-held index reports the resident/mapped split in
// the swap response, /v1/indexes, /metrics and the per-response
// X-JEM-Index-Resident-Bytes header — and the swapped index still
// serves byte-identical output. The displaced heap generation drains
// and is released.
func TestServeMemoryAccounting(t *testing.T) {
	w := getWorld(t)
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, serve.Config{Registry: reg})

	mapper, err := jem.NewMapper(w.ds.Contigs, w.opts)
	if err != nil {
		t.Fatal(err)
	}
	idxPath := filepath.Join(t.TempDir(), "asm.jemidx")
	if err := mapper.SaveIndexFile(idxPath); err != nil {
		t.Fatal(err)
	}

	reqBody, _ := json.Marshal(map[string]any{"index_path": idxPath, "memory": "mmap"})
	resp, err := http.Post(ts.URL+"/v1/indexes/asm/swap", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("swap: status %d: %s", resp.StatusCode, body)
	}
	var sr struct {
		IndexBytes    int64 `json:"index_bytes"`
		ResidentBytes int64 `json:"resident_bytes"`
		MappedBytes   int64 `json:"mapped_bytes"`
		Drained       bool  `json:"drained"`
		Released      bool  `json:"released"`
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("bad swap response %s: %v", body, err)
	}
	if sr.MappedBytes <= 0 {
		t.Errorf("mmap swap reports %d mapped bytes", sr.MappedBytes)
	}
	if !sr.Drained || !sr.Released {
		t.Errorf("displaced generation: drained=%v released=%v, want both", sr.Drained, sr.Released)
	}

	// The mapped index serves byte-identically and stamps its resident
	// cost on the response.
	mresp := postReads(t, ts.URL+"/v1/map/asm", w.fastq)
	mbody := readBody(t, mresp)
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("map after swap: %d: %.200s", mresp.StatusCode, mbody)
	}
	if !bytes.Equal(mbody, w.expectTSV) {
		t.Fatalf("mmap-served response differs from the heap reference (%d vs %d bytes)", len(mbody), len(w.expectTSV))
	}
	if h := mresp.Header.Get("X-JEM-Index-Resident-Bytes"); h == "" {
		t.Error("no X-JEM-Index-Resident-Bytes header")
	} else if n, err := strconv.ParseInt(h, 10, 64); err != nil || n < 0 {
		t.Errorf("X-JEM-Index-Resident-Bytes = %q", h)
	}

	// The listing splits resident vs mapped and totals both.
	lresp, err := http.Get(ts.URL + "/v1/indexes")
	if err != nil {
		t.Fatal(err)
	}
	lbody := readBody(t, lresp)
	var listing struct {
		Indexes []struct {
			IndexBytes    int64 `json:"index_bytes"`
			ResidentBytes int64 `json:"resident_bytes"`
			MappedBytes   int64 `json:"mapped_bytes"`
		} `json:"indexes"`
		TotalResident int64 `json:"total_resident_bytes"`
		TotalMapped   int64 `json:"total_mapped_bytes"`
	}
	if err := json.Unmarshal(lbody, &listing); err != nil {
		t.Fatalf("bad listing %s: %v", lbody, err)
	}
	if len(listing.Indexes) != 1 {
		t.Fatalf("listing has %d indexes", len(listing.Indexes))
	}
	ix := listing.Indexes[0]
	if ix.MappedBytes <= 0 || ix.MappedBytes != listing.TotalMapped || ix.ResidentBytes != listing.TotalResident {
		t.Errorf("listing split off: %+v totals=%d/%d", ix, listing.TotalResident, listing.TotalMapped)
	}

	// The split is exported as gauges alongside the total.
	gresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(readBody(t, gresp))
	for _, want := range []string{"jem_serve_index_resident_bytes", "jem_serve_index_mapped_bytes"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}

	// A bad memory mode is a 400, not a load attempt.
	reqBody, _ = json.Marshal(map[string]any{"index_path": idxPath, "memory": "balanced"})
	bresp, err := http.Post(ts.URL+"/v1/indexes/asm/swap", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	bbody := readBody(t, bresp)
	if bresp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad memory mode: status %d: %.120s", bresp.StatusCode, bbody)
	}
}

// TestServeSwapRefusesUnknownFields: a swap body carrying a field the
// request does not define — the retired memory_budget, or a misspelled
// index_path — is a 400 that names the field, never a swap that
// silently ignores it.
func TestServeSwapRefusesUnknownFields(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	for _, field := range []string{"memory_budget", "index_pth"} {
		reqBody, _ := json.Marshal(map[string]any{"index_path": "x.jemidx", "create": true, field: "1"})
		resp, err := http.Post(ts.URL+"/v1/indexes/asm/swap", "application/json", bytes.NewReader(reqBody))
		if err != nil {
			t.Fatal(err)
		}
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %.120s", field, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), field) {
			t.Errorf("%s: error %q does not name the field", field, body)
		}
	}
}
