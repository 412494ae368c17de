// Package serve is the long-lived mapping service behind cmd/jem-serve:
// an HTTP/JSON daemon that holds one or more open sharded sketch
// indexes hot and serves concurrent mapping sessions over them.
//
// It is the network tier over the jem facade — everything below it
// (sealed sharded index, context-first Stream with per-run Stats,
// cancellation, quarantine, fault injection, the obs registry) is
// reused as-is:
//
//	POST /v1/map[/{index}]        FASTA/FASTQ batch in, TSV or NDJSON out (streamed)
//	GET  /v1/indexes              loaded references + per-index memory accounting
//	POST /v1/indexes/{name}/swap  hot-swap a rebuilt index; drains the old generation
//	GET  /healthz                 liveness (process up)
//	GET  /readyz                  readiness (≥1 index loaded, not draining)
//	GET  /metrics, /statusz, /debug/pprof/*   (obs registry)
//
// Concurrency control is explicit: at most MaxInFlight requests map
// concurrently, MaxQueue more wait (deadline-aware), and overflow is
// rejected with 429 — see admission.go. Each request runs under its
// own deadline (?timeout, capped by MaxTimeout) and its records flow
// through the facade's pipelined micro-batching (64-read batches on
// persistent per-worker sessions), so concurrent small requests keep
// the workers hot without any cross-request state. See
// docs/SERVING.md.
package serve

import (
	"cmp"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro"
	"repro/internal/obs"
	"repro/internal/seq"
)

// Config tunes a Server. The zero value serves with the defaults
// noted on each field.
type Config struct {
	// MaxInFlight bounds concurrently mapping requests (default 4).
	MaxInFlight int
	// MaxQueue bounds requests waiting for an in-flight slot; beyond
	// it requests are rejected with 429 (default 4×MaxInFlight).
	MaxQueue int
	// WorkersPerRequest is the mapping-worker count each request's
	// stream pipeline gets (default GOMAXPROCS/MaxInFlight, min 1, so
	// a fully loaded server does not oversubscribe the cores).
	WorkersPerRequest int
	// DefaultTimeout is the per-request deadline when the client sends
	// no ?timeout (default 0 = none).
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested ?timeout values (default 5m).
	MaxTimeout time.Duration
	// Registry receives the server's instruments and is mounted at
	// /metrics; the mappers' own instruments should live in the same
	// registry (default: a fresh registry).
	Registry *obs.Registry

	// SlowRequest is the latency threshold marking a request slow: slow
	// requests are always retained in the trace ring and trigger the
	// flight recorder (default 0 = no threshold, flight recorder off).
	SlowRequest time.Duration
	// Logger receives the structured request log, one line per request
	// (default nil: no log emission; the /debug/requests ring still
	// fills).
	Logger *slog.Logger
}

// The settings below had one value in use, so they are constants.
const (
	// maxBodyBytes caps a mapping request's body.
	maxBodyBytes = 1 << 30
	// commitBytes is the response-buffer threshold below which a mapping
	// response is sent atomically: errors before it produce a
	// partial-free error status; responses that outgrow it stream with
	// 200 and periodic flushes.
	commitBytes = 1 << 20
	// traceRingSize bounds the completed request traces retained at
	// /debug/traces.
	traceRingSize = 256
	// traceSampleN keeps 1 in N of the ok-and-fast traces; errors, slow
	// requests and the p99 latency tail are always kept.
	traceSampleN = 8
	// flightRingSize bounds the flight snapshots retained at
	// /debug/flight.
	flightRingSize = 16
	// requestLogSize bounds the requests retained at /debug/requests.
	requestLogSize = 256
	// flightMinGap rate-limits flight captures: slow requests arrive in
	// bursts exactly when the process can least afford goroutine dumps,
	// so at most one capture lands per gap (the recorder counts the
	// rest as suppressed).
	flightMinGap = 2 * time.Second
)

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInFlight
	}
	if c.WorkersPerRequest <= 0 {
		c.WorkersPerRequest = runtime.GOMAXPROCS(0) / c.MaxInFlight
		if c.WorkersPerRequest < 1 {
			c.WorkersPerRequest = 1
		}
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	return c
}

// serveMetrics are the server-level instruments, alongside the mapper
// instruments already in the shared registry.
type serveMetrics struct {
	requests *obs.Counter
	rejected *obs.Counter
	errors   *obs.Counter
	deadline *obs.Counter
	canceled *obs.Counter
	badInput *obs.Counter
	swaps    *obs.Counter
	latency  *obs.Histogram
}

// Server is the mapping service. Create it with New, register indexes
// with AddIndex, and mount Handler on an http.Server.
type Server struct {
	cfg     Config
	reg     *obs.Registry
	adm     *admission
	indexes *indexSet
	met     serveMetrics
	mux     *http.ServeMux

	// Request-scoped observability: the tail-sampling trace ring
	// (/debug/traces), the slow-request flight recorder (/debug/flight),
	// the structured request log (/debug/requests), and the live
	// in-flight table snapshotted into flight captures.
	traces      *obs.TraceRing
	flight      *obs.FlightRecorder
	reqlog      *obs.RequestLog
	inflightMu  sync.Mutex
	inflightTab map[obs.TraceID]inflightEntry

	draining chan struct{} // closed by BeginDrain
}

// New creates a Server with no indexes loaded (readyz reports 503
// until the first AddIndex).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	s := &Server{
		cfg:     cfg,
		reg:     reg,
		adm:     newAdmission(cfg.MaxInFlight, cfg.MaxQueue),
		indexes: newIndexSet(),
		met: serveMetrics{
			requests: reg.Counter("jem_serve_requests_total", "mapping requests admitted"),
			rejected: reg.Counter("jem_serve_rejected_total", "mapping requests rejected by admission control (429)"),
			errors:   reg.Counter("jem_serve_errors_total", "mapping requests failed with a 5xx"),
			deadline: reg.Counter("jem_serve_deadline_total", "mapping requests that exceeded their deadline (504)"),
			canceled: reg.Counter("jem_serve_canceled_total", "mapping requests abandoned by the client"),
			badInput: reg.Counter("jem_serve_bad_input_total", "mapping requests rejected for malformed records (400)"),
			swaps:    reg.Counter("jem_serve_index_swaps_total", "index hot-swaps completed"),
			latency:  reg.Histogram("jem_serve_request_seconds", "mapping request latency", obs.LatencyBuckets()),
		},
		traces:      obs.NewTraceRing(traceRingSize, traceSampleN, cfg.SlowRequest),
		flight:      obs.NewFlightRecorder(cfg.SlowRequest, flightRingSize, flightMinGap),
		reqlog:      obs.NewRequestLog(cfg.Logger, requestLogSize),
		inflightTab: make(map[obs.TraceID]inflightEntry),
		draining:    make(chan struct{}),
	}
	reg.GaugeFunc("jem_serve_inflight", "mapping requests currently running",
		func() float64 { return float64(s.adm.InFlight()) })
	reg.GaugeFunc("jem_serve_queued", "mapping requests waiting for an in-flight slot",
		func() float64 { return float64(s.adm.Queued()) })
	reg.GaugeFunc("jem_serve_index_bytes", "total index bytes (resident + mapped) across all loaded index generations",
		func() float64 {
			var n int64
			for _, ix := range s.indexes.list() {
				n += ix.cur.Load().mapper.IndexBytes()
			}
			return float64(n)
		})
	reg.GaugeFunc("jem_serve_index_resident_bytes", "process-private heap bytes across all loaded index generations",
		func() float64 {
			var n int64
			for _, ix := range s.indexes.list() {
				resident, _ := ix.cur.Load().mapper.IndexMemory()
				n += resident
			}
			return float64(n)
		})
	reg.GaugeFunc("jem_serve_index_mapped_bytes", "file-backed (mmap, shareable) bytes across all loaded index generations",
		func() float64 {
			var n int64
			for _, ix := range s.indexes.list() {
				_, mapped := ix.cur.Load().mapper.IndexMemory()
				n += mapped
			}
			return float64(n)
		})
	reg.GaugeFunc("jem_serve_traces_retained", "request traces currently retained in the trace ring",
		func() float64 { return float64(s.traces.Len()) })
	reg.GaugeFunc("jem_serve_flight_captures", "flight-recorder snapshots taken since start",
		func() float64 { return float64(s.flight.Captures()) })

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/map", s.handleMap)
	mux.HandleFunc("POST /v1/map/{index}", s.handleMap)
	mux.HandleFunc("GET /v1/indexes", s.handleIndexes)
	mux.HandleFunc("POST /v1/indexes/{name}/swap", s.handleSwap)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	mux.HandleFunc("GET /debug/flight", s.handleFlight)
	mux.HandleFunc("GET /debug/requests", s.handleRequests)
	obs.Mount(mux, reg)
	s.mux = mux
	return s
}

// Handler returns the server's HTTP surface (API + observability).
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the server's observability registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// AddIndex registers (or replaces) a named reference index. Replacing
// follows the same swap-then-drain path as the HTTP endpoint.
func (s *Server) AddIndex(name string, m *jem.Mapper) {
	s.indexes.add(name, m)
}

// BeginDrain flips readyz to 503 so load balancers stop routing here;
// in-flight and queued requests keep running. Call it on
// SIGINT/SIGTERM before http.Server.Shutdown. Safe to call once.
func (s *Server) BeginDrain() { close(s.draining) }

func (s *Server) isDraining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	switch {
	case s.isDraining():
		http.Error(w, "draining", http.StatusServiceUnavailable)
	case s.indexes.size() == 0:
		http.Error(w, "no index loaded", http.StatusServiceUnavailable)
	default:
		fmt.Fprintln(w, "ready")
	}
}

// targetIndex resolves the index a map request addresses: the
// {index} path element when present, otherwise the sole loaded index.
func (s *Server) targetIndex(r *http.Request) (*servedIndex, error) {
	if name := r.PathValue("index"); name != "" {
		ix, ok := s.indexes.get(name)
		if !ok {
			return nil, fmt.Errorf("unknown index %q", name)
		}
		return ix, nil
	}
	if ix, ok := s.indexes.sole(); ok {
		return ix, nil
	}
	return nil, fmt.Errorf("%d indexes loaded; address one as /v1/map/{index}", s.indexes.size())
}

// requestDeadline derives the request context from ?timeout, the
// config default, and the MaxTimeout cap.
func (s *Server) requestDeadline(r *http.Request) (context.Context, context.CancelFunc, error) {
	d := s.cfg.DefaultTimeout
	if q := r.URL.Query().Get("timeout"); q != "" {
		td, err := time.ParseDuration(q)
		if err != nil || td <= 0 {
			return nil, nil, fmt.Errorf("bad timeout %q (want a positive Go duration, e.g. 30s)", q)
		}
		d = td
	}
	if d <= 0 {
		ctx, cancel := context.WithCancel(r.Context())
		return ctx, cancel, nil
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
}

// handleMap is the mapping endpoint: FASTA/FASTQ body in (optionally
// Content-Encoding: gzip), TSV (default) or NDJSON (?format=json)
// rows out, streamed. Stats land in the X-JEM-* response headers when
// the response is small enough to commit atomically. Every response —
// success or any rejection — carries an X-JEM-Trace-Id header; the
// deferred reqObs.finish routes the request into the trace ring, the
// request log and (when slow) the flight recorder.
func (s *Server) handleMap(w http.ResponseWriter, r *http.Request) {
	ro := s.beginRequest(w, r)
	defer ro.finish()

	ix, err := s.targetIndex(r)
	if err != nil {
		ro.httpError(w, err.Error(), http.StatusNotFound)
		return
	}
	ro.setIndex(ix.name)
	q := r.URL.Query()
	format, err := jem.ParseFormat(cmp.Or(q.Get("format"), "tsv"))
	if err != nil || (format != jem.FormatTSV && format != jem.FormatNDJSON) {
		ro.httpError(w, fmt.Sprintf("bad format %q (want tsv or json)", q.Get("format")), http.StatusBadRequest)
		return
	}
	policy := jem.BadRecordFail
	if p := q.Get("on_bad_record"); p != "" {
		policy, err = jem.ParseBadRecordPolicy(p)
		if err != nil || policy == jem.BadRecordQuarantine {
			ro.httpError(w, "bad on_bad_record (want fail or skip)", http.StatusBadRequest)
			return
		}
	}
	ctx, cancel, err := s.requestDeadline(r)
	if err != nil {
		ro.httpError(w, err.Error(), http.StatusBadRequest)
		return
	}
	defer cancel()

	// Admission: bounded concurrency, bounded queue, 429 on overflow.
	// The wait is a child span, so queueing time is separated from
	// mapping time in the trace.
	admit := ro.t.Root.Child("admission")
	release, err := s.adm.admit(ctx)
	ro.t.AdmissionWait = admit.End()
	if err != nil {
		if errors.Is(err, ErrQueueFull) {
			s.met.rejected.Inc()
			w.Header().Set("Retry-After", "1")
			ro.httpError(w, "server at capacity", http.StatusTooManyRequests)
			return
		}
		// Queued past the deadline (or the client gave up waiting).
		ro.timed = true
		status, msg := s.classify(err)
		ro.httpError(w, msg, status)
		return
	}
	defer release()
	s.met.requests.Inc()

	var reader io.Reader = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if r.Header.Get("Content-Encoding") == "gzip" {
		gz, err := gzip.NewReader(reader)
		if err != nil {
			ro.httpError(w, "bad gzip body: "+err.Error(), http.StatusBadRequest)
			return
		}
		defer gz.Close()
		reader = gz
	}

	v := ix.acquire()
	defer v.release()
	ro.t.Root.SetAttr("generation", v.gen)

	dw := newDeferredWriter(w, commitBytes)
	if format == jem.FormatNDJSON {
		w.Header().Set("Content-Type", "application/x-ndjson")
	} else {
		w.Header().Set("Content-Type", "text/tab-separated-values; charset=utf-8")
	}

	// The context now carries the request span: the facade's Stream
	// attaches its read/sketch/gather/write phase children and
	// per-shard timings to it.
	ro.timed = true
	stats, err := v.mapper.Stream(obs.ContextWithSpan(ctx, ro.t.Root), reader, dw, jem.StreamOptions{
		Format:      format,
		Workers:     s.cfg.WorkersPerRequest,
		OnBadRecord: policy,
	})
	ro.setStats(stats)
	if err != nil {
		status, msg := s.classify(err)
		ro.fail(status, msg)
		dw.fail(status, msg)
		return
	}
	err = dw.finish(func(h http.Header) {
		h.Set("X-JEM-Reads", fmt.Sprint(stats.Reads))
		h.Set("X-JEM-Segments", fmt.Sprint(stats.Segments))
		h.Set("X-JEM-Mapped", fmt.Sprint(stats.Mapped))
		h.Set("X-JEM-Bad-Records", fmt.Sprint(stats.BadRecords))
		h.Set("X-JEM-Postings-Scanned", fmt.Sprint(stats.PostingsScanned))
		h.Set("X-JEM-Index-Generation", fmt.Sprint(v.gen))
		// The heap cost of the index that served this request (an mmap
		// index reports ≈0; a heap index reports its full size).
		resident, _ := v.mapper.IndexMemory()
		h.Set("X-JEM-Index-Resident-Bytes", fmt.Sprint(resident))
		if len(stats.ShardsLost) > 0 {
			// Degraded answer: the rows are complete but segments whose
			// probes routed to these shards were mapped without their
			// postings. Clients that need exactness retry the request.
			h.Set("X-JEM-Shards-Lost", joinInts(stats.ShardsLost))
		}
	})
	if err != nil {
		// The response write failed; nothing sensible to send.
		s.met.canceled.Inc()
		ro.fail(499, "response write failed: "+err.Error())
	}
}

// joinInts renders ids as a comma-separated list for the
// X-JEM-Shards-Lost header.
func joinInts(ids []int) string {
	var b []byte
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	return string(b)
}

// classify maps run errors to HTTP statuses and moves the failure
// counters: deadline → 504, client-gone → 499 (nginx convention),
// malformed records → 400, everything else (injected faults, worker
// panics, I/O) → 500.
func (s *Server) classify(err error) (int, string) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.met.deadline.Inc()
		return http.StatusGatewayTimeout, "deadline exceeded before the mapping completed"
	case errors.Is(err, context.Canceled):
		s.met.canceled.Inc()
		return 499, "request canceled"
	case seq.IsRecordError(err):
		s.met.badInput.Inc()
		return http.StatusBadRequest, "malformed input record: " + err.Error()
	default:
		s.met.errors.Inc()
		return http.StatusInternalServerError, "mapping failed: " + err.Error()
	}
}

// swapRequest is the POST /v1/indexes/{name}/swap body.
type swapRequest struct {
	// IndexPath is the saved index to load.
	IndexPath string `json:"index_path"`
	// ContigsPath, when set, supplies contig records: the rebuild
	// source with RebuildOnCorrupt, otherwise record metadata only.
	ContigsPath string `json:"contigs_path,omitempty"`
	// RebuildOnCorrupt falls back to rebuilding from ContigsPath when
	// the index file fails its checksum.
	RebuildOnCorrupt bool `json:"rebuild_on_corrupt,omitempty"`
	// Shards applies to a rebuild (a loaded index keeps its own).
	Shards int `json:"shards,omitempty"`
	// Memory selects how the loaded index is held: "heap", "mmap"
	// (serve straight from the page cache), or "auto" (the default:
	// mmap where the host can, heap otherwise). Applies to index_path
	// loads; a rebuild is always heap-resident.
	Memory string `json:"memory,omitempty"`
	// DrainTimeout bounds the wait for old-generation requests
	// (Go duration string, default "30s").
	DrainTimeout string `json:"drain_timeout,omitempty"`
	// Create registers the name if it is not already served.
	Create bool `json:"create,omitempty"`
}

type swapResponse struct {
	Name          string `json:"name"`
	Generation    int64  `json:"generation"`
	IndexBytes    int64  `json:"index_bytes"`
	ResidentBytes int64  `json:"resident_bytes"`
	MappedBytes   int64  `json:"mapped_bytes"`
	Contigs       int    `json:"contigs"`
	Shards        int    `json:"shards"`
	Rebuilt       bool   `json:"rebuilt,omitempty"`
	Drained       bool   `json:"drained"`
	DrainMs       int64  `json:"drain_ms"`
	// Released reports that the displaced generation's backend
	// resources (an mmap'd index's file mapping) were closed after the
	// drain; false when the drain timed out — the old generation still
	// has requests pinned, so its mapping must stay alive.
	Released bool `json:"released"`
}

// handleSwap loads a new index generation and hot-swaps it behind the
// name's atomic pointer. In-flight requests finish on the generation
// they started with; the handler waits (bounded) for that drain and
// reports whether it completed. No request is ever dropped by a swap.
func (s *Server) handleSwap(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req swapRequest
	// An unknown field is refused, not ignored: a misspelled or retired
	// key (index_pth, memory_budget) would otherwise swap in something
	// other than what was asked for.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		http.Error(w, "bad swap request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.IndexPath == "" && req.ContigsPath == "" {
		http.Error(w, "swap needs index_path, contigs_path, or both", http.StatusBadRequest)
		return
	}
	if _, known := s.indexes.get(name); !known && !req.Create {
		http.Error(w, fmt.Sprintf("unknown index %q (set create to register it)", name), http.StatusNotFound)
		return
	}
	drainTimeout := 30 * time.Second
	if req.DrainTimeout != "" {
		d, err := time.ParseDuration(req.DrainTimeout)
		if err != nil || d <= 0 {
			http.Error(w, "bad drain_timeout", http.StatusBadRequest)
			return
		}
		drainTimeout = d
	}

	var contigs []jem.Record
	if req.ContigsPath != "" {
		var err error
		if contigs, err = jem.ReadSequences(req.ContigsPath); err != nil {
			http.Error(w, "loading contigs: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	opts := jem.DefaultOptions()
	opts.Metrics = s.reg
	opts.Shards = req.Shards
	mode, err := jem.ParseMemoryMode(req.Memory)
	if err != nil {
		http.Error(w, "bad memory: "+err.Error(), http.StatusBadRequest)
		return
	}
	opts.Memory = jem.Memory{Mode: mode}
	m, info, err := jem.Open(jem.OpenOptions{
		Contigs:          contigs,
		IndexPath:        req.IndexPath,
		RebuildOnCorrupt: req.RebuildOnCorrupt,
		Options:          opts,
	})
	if err != nil {
		http.Error(w, "loading index: "+err.Error(), http.StatusBadRequest)
		return
	}

	ix, displaced := s.indexes.add(name, m)
	resident, mapped := m.IndexMemory()
	resp := swapResponse{
		Name:          name,
		Generation:    ix.cur.Load().gen,
		IndexBytes:    m.IndexBytes(),
		ResidentBytes: resident,
		MappedBytes:   mapped,
		Contigs:       m.NumContigs(),
		Shards:        m.Shards(),
		Rebuilt:       info.Rebuilt,
		Drained:       true,
		Released:      true,
	}
	if displaced != nil {
		dctx, cancel := context.WithTimeout(r.Context(), drainTimeout)
		defer cancel()
		var waited time.Duration
		resp.Drained, waited = drain(dctx, displaced)
		resp.DrainMs = waited.Milliseconds()
		// Only a fully drained generation can be closed: Close unmaps an
		// mmap-backed index (and tears down shard-server pools), which
		// must never happen under a request still pinning the mapper. A
		// timed-out drain leaves the old generation alive; its memory
		// stays accounted until its requests finish and GC collects it.
		resp.Released = resp.Drained
		if resp.Drained {
			_ = displaced.mapper.Close()
		}
	}
	s.met.swaps.Inc()
	writeJSON(w, http.StatusOK, resp)
}

// indexInfo is one entry of the GET /v1/indexes listing. IndexBytes is
// the whole index; ResidentBytes/MappedBytes split it into
// process-private heap and file-backed mapping.
type indexInfo struct {
	Name          string `json:"name"`
	Generation    int64  `json:"generation"`
	Contigs       int    `json:"contigs"`
	Shards        int    `json:"shards"`
	IndexBytes    int64  `json:"index_bytes"`
	ResidentBytes int64  `json:"resident_bytes"`
	MappedBytes   int64  `json:"mapped_bytes"`
	InFlight      int64  `json:"inflight"`
	Served        int64  `json:"served"`
	Params        struct {
		K          int   `json:"k"`
		W          int   `json:"w"`
		Trials     int   `json:"trials"`
		SegmentLen int   `json:"segment_len"`
		Seed       int64 `json:"seed"`
	} `json:"params"`
}

func (s *Server) handleIndexes(w http.ResponseWriter, _ *http.Request) {
	list := s.indexes.list()
	out := struct {
		Indexes       []indexInfo `json:"indexes"`
		TotalBytes    int64       `json:"total_index_bytes"`
		TotalResident int64       `json:"total_resident_bytes"`
		TotalMapped   int64       `json:"total_mapped_bytes"`
	}{Indexes: make([]indexInfo, 0, len(list))}
	for _, ix := range list {
		v := ix.cur.Load()
		m := v.mapper
		resident, mapped := m.IndexMemory()
		info := indexInfo{
			Name:          ix.name,
			Generation:    v.gen,
			Contigs:       m.NumContigs(),
			Shards:        m.Shards(),
			IndexBytes:    m.IndexBytes(),
			ResidentBytes: resident,
			MappedBytes:   mapped,
			InFlight:      v.inflight.Load(),
			Served:        v.served.Load(),
		}
		o := m.Options()
		info.Params.K, info.Params.W = o.K, o.W
		info.Params.Trials, info.Params.SegmentLen = o.Trials, o.SegmentLen
		info.Params.Seed = o.Seed
		out.TotalBytes += info.IndexBytes
		out.TotalResident += resident
		out.TotalMapped += mapped
		out.Indexes = append(out.Indexes, info)
	}
	writeJSON(w, http.StatusOK, out)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
