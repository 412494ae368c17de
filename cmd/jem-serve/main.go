// Command jem-serve is the long-lived mapping service: it loads one
// or more contig sketch indexes, keeps them hot, and serves concurrent
// mapping requests over HTTP until told to stop.
//
// Usage:
//
//	jem-serve -addr :8844 -index ecoli=/data/ecoli.jemidx
//	jem-serve -addr :8844 -contigs asm=/data/contigs.fasta -shards 8
//
// -index and -contigs are repeatable name=path pairs; a name given to
// both loads the index file and keeps the contig records as metadata.
// Map against a loaded reference with:
//
//	curl --data-binary @reads.fastq 'localhost:8844/v1/map/ecoli?timeout=30s'
//
// Endpoints, admission control, deadlines and the hot-swap protocol
// are documented in docs/SERVING.md. SIGINT/SIGTERM drain gracefully:
// readyz flips to 503, in-flight requests finish (bounded by
// -drain-timeout), then the process exits; a second signal kills it
// immediately.
//
// Every request is logged to stderr as one JSON line (-log-text for
// text) and kept in /debug/requests; /debug/traces tail-samples the
// span trees, and requests slower than -slow-request are kept there
// and captured at /debug/flight. The retention bounds are fixed; see
// docs/OBSERVABILITY.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/obs"
	"repro/internal/serve"
)

// namedPaths collects repeatable -index/-contigs name=path flags in
// order.
type namedPaths []struct{ name, path string }

func (n *namedPaths) String() string { return fmt.Sprint(*n) }

func (n *namedPaths) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*n = append(*n, struct{ name, path string }{name, path})
	return nil
}

func main() {
	var (
		indexes      namedPaths
		contigs      namedPaths
		shardServers namedPaths

		addr     = flag.String("addr", ":8844", "HTTP listen address")
		k        = flag.Int("k", 16, "k-mer size (builds from -contigs)")
		w        = flag.Int("w", 100, "minimizer window size (builds from -contigs)")
		t        = flag.Int("t", 30, "sketch trials T (builds from -contigs)")
		l        = flag.Int("l", 1000, "end segment length (builds from -contigs)")
		seed     = flag.Int64("seed", 1, "hash family seed (builds from -contigs)")
		shards   = flag.Int("shards", 0, "index shards for builds (0/1 = unsharded)")
		memory   = flag.String("memory", "", "how -index loads hold the table: heap, mmap, or auto (mmap where the host can, heap otherwise; builds are always heap)")
		inflight = flag.Int("max-in-flight", 0, "concurrent mapping requests (0 = default 4)")
		queue    = flag.Int("max-queue", 0, "waiting requests before 429 (0 = 4x max-in-flight)")
		reqWork  = flag.Int("workers-per-request", 0, "mapping workers per request (0 = GOMAXPROCS/max-in-flight)")
		defTO    = flag.Duration("default-timeout", 0, "per-request deadline when the client sends none (0 = none)")
		maxTO    = flag.Duration("max-timeout", 5*time.Minute, "cap on client-requested ?timeout")
		drainTO  = flag.Duration("drain-timeout", 30*time.Second, "shutdown grace for in-flight requests")

		slowReq = flag.Duration("slow-request", time.Second, "latency threshold that marks a request slow and arms the flight recorder (0 = off)")
		logText = flag.Bool("log-text", false, "log human-readable text instead of JSON")
	)
	flag.Var(&indexes, "index", "serve a saved index: name=path (repeatable)")
	flag.Var(&contigs, "contigs", "build and serve an index from contigs: name=path (repeatable)")
	flag.Var(&shardServers, "shard-servers",
		"serve name through a jem-shardd fleet: name=addr1,addr2 (repeatable; requires -index name=path — only the manifest is read locally)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: jem-serve [flags] -index name=path | -contigs name=path\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if len(indexes) == 0 && len(contigs) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	var handler slog.Handler = slog.NewJSONHandler(os.Stderr, nil)
	if *logText {
		handler = slog.NewTextHandler(os.Stderr, nil)
	}
	logger := slog.New(handler)
	memMode, err := jem.ParseMemoryMode(*memory)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jem-serve:", err)
		os.Exit(2)
	}
	if err := run(logger, indexes, contigs, shardServers, config{
		addr: *addr, k: *k, w: *w, t: *t, l: *l, seed: *seed, shards: *shards,
		memory:   jem.Memory{Mode: memMode},
		inflight: *inflight, queue: *queue, reqWork: *reqWork,
		defTO: *defTO, maxTO: *maxTO, drainTO: *drainTO, slowReq: *slowReq,
	}); err != nil {
		logger.Error("jem-serve failed", slog.Any("error", err))
		os.Exit(1)
	}
}

type config struct {
	addr                           string
	k, w, t, l                     int
	seed                           int64
	shards                         int
	memory                         jem.Memory
	inflight, queue, reqWork       int
	defTO, maxTO, drainTO, slowReq time.Duration
}

func run(logger *slog.Logger, indexes, contigs, shardServers namedPaths, cfg config) error {
	reg := obs.NewRegistry()
	srv := serve.New(serve.Config{
		MaxInFlight:       cfg.inflight,
		MaxQueue:          cfg.queue,
		WorkersPerRequest: cfg.reqWork,
		DefaultTimeout:    cfg.defTO,
		MaxTimeout:        cfg.maxTO,
		Registry:          reg,
		SlowRequest:       cfg.slowReq,
		Logger:            logger,
	})

	// Contig records given for the same name as an index become load
	// metadata; standalone -contigs names are full builds.
	contigRecords := make(map[string][]jem.Record)
	for _, c := range contigs {
		recs, err := jem.ReadSequences(c.path)
		if err != nil {
			return fmt.Errorf("contigs %s: %w", c.name, err)
		}
		contigRecords[c.name] = recs
	}
	// Shard-server fleets are keyed by index name; each value is the
	// comma-separated server address list.
	fleets := make(map[string][]string)
	for _, ss := range shardServers {
		fleets[ss.name] = strings.Split(ss.path, ",")
	}
	opts := jem.Options{K: cfg.k, W: cfg.w, Trials: cfg.t, SegmentLen: cfg.l,
		Seed: cfg.seed, Shards: cfg.shards, Memory: cfg.memory, Metrics: reg}
	loaded := make(map[string]bool)
	// Remote mappers hold coordinator connection pools; release them
	// when the server exits.
	var remotes []*jem.Mapper
	defer func() {
		for _, m := range remotes {
			_ = m.Close()
		}
	}()
	for _, ix := range indexes {
		m, info, err := jem.Open(jem.OpenOptions{
			Contigs:      contigRecords[ix.name],
			IndexPath:    ix.path,
			ShardServers: fleets[ix.name],
			Options:      opts,
		})
		if err != nil {
			return fmt.Errorf("index %s: %w", ix.name, err)
		}
		srv.AddIndex(ix.name, m)
		loaded[ix.name] = true
		how := "loaded"
		if info.Remote {
			how = fmt.Sprintf("remote (%d shard servers)", len(fleets[ix.name]))
			remotes = append(remotes, m)
		}
		delete(fleets, ix.name)
		logIndex(logger, ix.name, m, how)
	}
	for name := range fleets {
		return fmt.Errorf("-shard-servers %s given without a matching -index %s=path", name, name)
	}
	for _, c := range contigs {
		if loaded[c.name] {
			continue
		}
		m, err := jem.NewMapper(contigRecords[c.name], opts)
		if err != nil {
			return fmt.Errorf("building %s: %w", c.name, err)
		}
		srv.AddIndex(c.name, m)
		logIndex(logger, c.name, m, "built")
	}

	hs := &http.Server{Addr: cfg.addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() {
		if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	logger.Info("listening",
		slog.String("addr", cfg.addr),
		slog.String("endpoints", "/v1/map /v1/indexes /healthz /readyz /metrics /debug/traces /debug/flight /debug/requests"),
		slog.Duration("slow_request", cfg.slowReq),
	)

	// First signal: stop advertising ready, drain in-flight requests,
	// exit. Second signal (stop() restores default handling): hard kill.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Info("draining", slog.Duration("grace", cfg.drainTO))
	srv.BeginDrain()
	sctx, cancel := context.WithTimeout(context.Background(), cfg.drainTO)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown: %w (in-flight requests were cut)", err)
	}
	logger.Info("drained, bye")
	return nil
}

func logIndex(logger *slog.Logger, name string, m *jem.Mapper, how string) {
	resident, mapped := m.IndexMemory()
	logger.Info("index ready",
		slog.String("name", name),
		slog.String("source", how),
		slog.Int("contigs", m.NumContigs()),
		slog.Int("shards", m.Shards()),
		slog.Int64("index_bytes", m.IndexBytes()),
		slog.Int64("resident_bytes", resident),
		slog.Int64("mapped_bytes", mapped),
	)
}
