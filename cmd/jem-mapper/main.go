// Command jem-mapper maps the end segments of long reads to contigs
// using the JEM sketch, writing one row per end segment to stdout (or
// -o): a TSV mapping table, or with -format paf|sam|json positional
// PAF, alignment-verified SAM or NDJSON. Reads are streamed, never
// loaded whole, and per-phase stats (reads, segments, postings scanned,
// read/map/write wall) are printed on stderr.
//
// Usage:
//
//	jem-mapper [flags] contigs.fasta reads.fastq
//
// Flags mirror the paper's parameters: -k 16 -w 100 -t 30 -l 1000.
// Pass -p N to run the simulated distributed-memory algorithm on N
// ranks and report per-step simulated times on stderr; it loads the
// read set and writes TSV.
//
// Pass -metrics-addr host:port to serve live observability while the
// run is in flight: /metrics (Prometheus text), /statusz (human
// table + phase spans) and /debug/pprof/*.
// -metrics-linger keeps the server up after the run so a scraper can
// collect the final state. See docs/OBSERVABILITY.md.
//
// SIGINT/SIGTERM cancel the run: in-flight batches drain, partial
// output is flushed, the summary printed so far is reported, and the
// process exits non-zero. -on-bad-record controls what a malformed
// input record does (fail the run, be skipped, or be skipped AND
// logged to a quarantine sidecar file). See docs/ROBUSTNESS.md.
package main

import (
	"bufio"
	"compress/gzip"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/obs"
)

// logger carries the CLI's structured progress log (stderr). Result
// summaries (printStats, the distributed step table)
// stay plain text: they are the run's output, not its log.
var logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{
	ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
		if a.Key == slog.TimeKey && len(groups) == 0 {
			return slog.Attr{} // timestamps are noise on an interactive CLI
		}
		return a
	},
}))

func main() {
	var (
		k           = flag.Int("k", 16, "k-mer size")
		w           = flag.Int("w", 100, "minimizer window size (in k-mers)")
		t           = flag.Int("t", 30, "number of sketch trials T")
		l           = flag.Int("l", 1000, "end segment / interval length (bp)")
		seed        = flag.Int64("seed", 1, "hash family seed")
		workers     = flag.Int("workers", 0, "goroutines (0 = all cores)")
		shards      = flag.Int("shards", 0, "partition the sketch index into this many shards (0/1 = unsharded; sharded and unsharded output is identical)")
		ranks       = flag.Int("p", 0, "simulated MPI ranks (0 = shared-memory run)")
		outPath     = flag.String("o", "", "output path (default stdout)")
		format      = flag.String("format", "tsv", "output rows: tsv, paf (positional estimates), sam (top hits verified by alignment; slower) or json (NDJSON)")
		saveIdx     = flag.String("save-index", "", "write the sketch index here after building (atomic temp+rename)")
		loadIdx     = flag.String("load-index", "", "load a sketch index instead of sketching contigs")
		memory      = flag.String("memory", "", "how -load-index holds the table: heap, mmap, or auto (mmap where the host can, heap otherwise; see docs/MEMORY.md)")
		cpuProf     = flag.String("cpuprofile", "", "write a CPU profile here")
		onBadRecord = flag.String("on-bad-record", "fail",
			"what a malformed input record does: fail, skip, or quarantine (skip + log to the sidecar file)")
		quarantinePath = flag.String("quarantine-file", "",
			"sidecar path for -on-bad-record=quarantine (default: <output>.quarantine, requires -o)")
		maxRecordLen = flag.Int("max-record-len", 0,
			"treat records longer than this many bases as bad records (0 = no limit)")
		metricsAddr = flag.String("metrics-addr", "",
			"serve /metrics, /statusz and /debug/pprof on this address (e.g. 127.0.0.1:9090; empty = off)")
		metricsLinger = flag.Duration("metrics-linger", 0,
			"keep the metrics server up this long after the run finishes (lets a scraper collect the final state)")
		logJSON = flag.Bool("log-json", false, "emit the progress log as JSON lines instead of text")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: jem-mapper [flags] contigs.fasta reads.fastq\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	if *logJSON {
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	policy, err := jem.ParseBadRecordPolicy(*onBadRecord)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jem-mapper: %v\n", err)
		os.Exit(2)
	}
	outFormat, err := jem.ParseFormat(*format)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jem-mapper: %v\n", err)
		os.Exit(2)
	}
	memMode, err := jem.ParseMemoryMode(*memory)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jem-mapper: %v\n", err)
		os.Exit(2)
	}
	opts := jem.Options{K: *k, W: *w, Trials: *t, SegmentLen: *l, Seed: *seed, Workers: *workers, Shards: *shards,
		Memory: jem.Memory{Mode: memMode}}
	cfg := runConfig{
		contigPath: flag.Arg(0), readPath: flag.Arg(1),
		opts: opts, ranks: *ranks, outPath: *outPath, format: outFormat,
		saveIndex: *saveIdx, loadIndex: *loadIdx, cpuProfile: *cpuProf,
		onBadRecord: policy, quarantinePath: *quarantinePath, maxRecordLen: *maxRecordLen,
		metricsAddr: *metricsAddr, metricsLinger: *metricsLinger,
	}
	// SIGINT/SIGTERM cancel ctx; the pipeline drains in-flight batches,
	// flushes partial output and returns context.Canceled. A second
	// signal kills the process outright (stop() restores the default
	// handler), so a wedged run can still be terminated.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg); err != nil {
		if errors.Is(err, context.Canceled) {
			logger.Warn("interrupted; partial output flushed")
		} else {
			logger.Error("run failed", slog.Any("error", err))
		}
		os.Exit(1)
	}
}

type runConfig struct {
	contigPath, readPath string
	opts                 jem.Options
	ranks                int
	outPath              string
	format               jem.Format
	saveIndex, loadIndex string
	cpuProfile           string
	onBadRecord          jem.BadRecordPolicy
	quarantinePath       string
	maxRecordLen         int
	metricsAddr          string
	metricsLinger        time.Duration
}

func run(ctx context.Context, cfg runConfig) (retErr error) {
	if err := cfg.opts.Validate(); err != nil {
		return err
	}
	// One registry for the whole run: the mapper's instruments, phase
	// spans and (with -p) per-rank spans all land here, and the final
	// summary is printed from it. -metrics-addr serves it live.
	reg := obs.NewRegistry()
	cfg.opts.Metrics = reg
	if cfg.metricsAddr != "" {
		srv, err := obs.Serve(cfg.metricsAddr, reg)
		if err != nil {
			return err
		}
		logger.Info("serving metrics",
			slog.String("url", srv.URL()+"/metrics"),
			slog.String("also", "/statusz /debug/pprof"))
		defer func() {
			if cfg.metricsLinger > 0 {
				logger.Info("metrics server lingering", slog.Duration("linger", cfg.metricsLinger))
				// The linger is interruptible: a signal during it ends the
				// wait early instead of holding the process hostage.
				select {
				case <-time.After(cfg.metricsLinger):
				case <-ctx.Done():
				}
			}
			// Graceful shutdown lets an in-flight scrape finish; fall back
			// to a hard close if it cannot within the grace period.
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := srv.Shutdown(sctx); err != nil {
				_ = srv.Close() // hard stop; the scrape was cut anyway
			}
		}()
	}
	if cfg.cpuProfile != "" {
		f, err := os.Create(cfg.cpuProfile)
		if err != nil {
			return err
		}
		// StopCPUProfile (deferred later, so it runs first) flushes the
		// profile; a failed close means a truncated profile on disk.
		defer func() {
			if cerr := f.Close(); cerr != nil && retErr == nil {
				retErr = cerr
			}
		}()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if cfg.ranks > 0 && (cfg.format != jem.FormatTSV || cfg.onBadRecord != jem.BadRecordFail || cfg.maxRecordLen > 0) {
		return fmt.Errorf("-p loads the read set and writes TSV (drop -format, -on-bad-record and -max-record-len)")
	}
	if cfg.onBadRecord == jem.BadRecordQuarantine && cfg.quarantinePath == "" {
		if cfg.outPath == "" {
			return fmt.Errorf("-on-bad-record=quarantine needs -quarantine-file (or -o, which defaults the sidecar to <output>.quarantine)")
		}
		cfg.quarantinePath = cfg.outPath + ".quarantine"
	}
	start := time.Now()
	contigs, err := jem.ReadSequences(cfg.contigPath)
	if err != nil {
		return err
	}
	logger.Info("contigs loaded",
		slog.Int("contigs", len(contigs)),
		slog.Duration("elapsed", time.Since(start).Round(time.Millisecond)))

	out := os.Stdout
	if cfg.outPath != "" {
		f, err := os.Create(cfg.outPath)
		if err != nil {
			return err
		}
		// Close errors on the output file are write errors (the last
		// buffered bytes land at close): a truncated mapping table must
		// fail the run, not exit 0.
		defer func() {
			if cerr := f.Close(); cerr != nil && retErr == nil {
				retErr = cerr
			}
		}()
		out = f
	}

	if cfg.ranks > 0 {
		reads, err := jem.ReadSequences(cfg.readPath)
		if err != nil {
			return err
		}
		dout, err := jem.MapDistributed(contigs, reads, cfg.ranks, cfg.opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "simulated p=%d total=%v comm=%.1f%% throughput=%.0f seg/s\n",
			cfg.ranks, dout.Total.Round(time.Millisecond), 100*dout.CommFraction, dout.Throughput)
		for _, st := range dout.Steps {
			fmt.Fprintf(os.Stderr, "  %-22s %v\n", st.Name, st.Duration.Round(time.Microsecond))
		}
		fmt.Fprint(os.Stderr, dout.PhaseTrace)
		return jem.WriteTSV(out, dout.Mappings)
	}

	mapper, err := buildMapper(cfg, contigs, reg)
	if err != nil {
		return err
	}
	// Releases the file mapping of an mmap-backed -load-index; a no-op
	// for heap-resident mappers.
	defer mapper.Close()
	if cfg.saveIndex != "" {
		if err := mapper.SaveIndexFile(cfg.saveIndex); err != nil {
			return err
		}
		logger.Info("index saved", slog.String("path", cfg.saveIndex))
	}

	mapStart := time.Now()
	stats, err := mapStreaming(ctx, mapper, cfg, out)
	printStats(os.Stderr, stats, time.Since(mapStart))
	return err
}

// buildMapper constructs the mapper through jem.Open: it loads the
// index when -load-index is given (falling back to a rebuild from the
// contigs when the file is corrupt — never serving a corrupt index)
// and sketches the contigs otherwise.
func buildMapper(cfg runConfig, contigs []jem.Record, reg *obs.Registry) (*jem.Mapper, error) {
	cfg.opts.Metrics = reg
	mapper, info, err := jem.Open(jem.OpenOptions{
		Contigs:          contigs,
		IndexPath:        cfg.loadIndex,
		RebuildOnCorrupt: true,
		Options:          cfg.opts,
	})
	if err != nil {
		return nil, err
	}
	switch {
	case info.FromIndex:
		logger.Info("index loaded",
			slog.String("path", cfg.loadIndex), slog.Int("contigs", mapper.NumContigs()))
	case info.Rebuilt:
		// The message keeps "corrupt" and "rebuilding" verbatim — the
		// operator-facing contract tests pin those words.
		logger.Warn("index corrupt; rebuilding from contigs",
			slog.String("path", cfg.loadIndex), slog.Any("error", info.IndexErr))
		logger.Info("subjects sketched", slog.Int("subjects", mapper.NumContigs()))
	default:
		logger.Info("subjects sketched", slog.Int("subjects", mapper.NumContigs()))
	}
	if sh := mapper.Shards(); sh > 1 {
		logger.Info("serving sharded index", slog.Int("shards", sh))
	}
	return mapper, nil
}

// mapStreaming streams the reads file (gzip-transparent) through the
// mapper in cfg.format and returns its per-phase stats. The context
// cancels the pipeline; whatever was mapped before cancellation is
// flushed to out regardless.
func mapStreaming(ctx context.Context, mapper *jem.Mapper, cfg runConfig, out *os.File) (jem.Stats, error) {
	f, err := os.Open(cfg.readPath)
	if err != nil {
		return jem.Stats{}, err
	}
	defer f.Close()
	var src io.Reader = f
	if strings.HasSuffix(cfg.readPath, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return jem.Stats{}, err
		}
		defer gz.Close()
		src = gz
	}
	opts := jem.StreamOptions{Format: cfg.format, OnBadRecord: cfg.onBadRecord, MaxRecordLen: cfg.maxRecordLen}
	var sidecar *os.File
	if cfg.onBadRecord == jem.BadRecordQuarantine {
		sidecar, err = os.Create(cfg.quarantinePath)
		if err != nil {
			return jem.Stats{}, err
		}
		opts.Quarantine = sidecar
	}
	bw := bufio.NewWriterSize(out, 1<<16)
	stats, err := mapper.Stream(ctx, src, bw, opts)
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if sidecar != nil {
		// The sidecar is a write handle: its close error is a lost
		// quarantine log and must surface unless the run already failed.
		if cerr := sidecar.Close(); cerr != nil && err == nil {
			err = cerr
		}
		if stats.Quarantined > 0 {
			// fmt.Sprintf keeps the "quarantined N bad records" phrasing
			// the CLI contract tests pin.
			logger.Warn(fmt.Sprintf("quarantined %d bad records to %s", stats.Quarantined, cfg.quarantinePath),
				slog.Int("quarantined", stats.Quarantined),
				slog.String("sidecar", cfg.quarantinePath))
		}
	}
	return stats, err
}

// printStats renders the jem.Stats snapshot on one line per phase.
func printStats(w io.Writer, s jem.Stats, elapsed time.Duration) {
	fmt.Fprintf(w, "streamed %d reads -> %d segments (%d mapped), %d postings scanned in %v\n",
		s.Reads, s.Segments, s.Mapped, s.PostingsScanned, elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "  phase wall: read %v, map %v, write %v\n",
		s.ReadWall.Round(time.Millisecond), s.MapWall.Round(time.Millisecond),
		s.WriteWall.Round(time.Millisecond))
	if s.BadRecords > 0 || s.WorkerPanics > 0 {
		fmt.Fprintf(w, "  bad records: %d (%d quarantined), worker panics: %d\n",
			s.BadRecords, s.Quarantined, s.WorkerPanics)
	}
}
