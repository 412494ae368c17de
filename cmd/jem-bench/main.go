// Command jem-bench regenerates the paper's tables and figures on
// synthesized datasets. Each subcommand is one entry of
// experiments.Exhibits():
//
//	jem-bench table1            dataset statistics
//	jem-bench fig5              precision/recall, JEM vs Mashmap
//	jem-bench fig6              trial sweep, JEM vs classical MinHash
//	jem-bench table2            strong scaling p=4..64 + Mashmap
//	jem-bench fig7a             runtime breakdown by step (p=16)
//	jem-bench fig7b             querying throughput vs p
//	jem-bench fig8              computation vs communication split
//	jem-bench fig9              percent identity distribution
//	jem-bench all               everything above in order
//
// Performance is measured elsewhere: the layered benchmark in
// benchmark/ (go run -C benchmark . run|compare).
//
// The -scale flag scales the paper's genome lengths; the default 0.01
// keeps a full "all" run in the minutes range on a laptop. Absolute
// runtimes are not comparable to the paper's cluster; shapes are.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro"
	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	var (
		scale       = flag.Float64("scale", 0.01, "genome length scale vs the paper")
		trials      = flag.Int("t", 30, "sketch trials T")
		seed        = flag.Int64("seed", 1, "hash family seed")
		csvDir      = flag.String("csv", "", "also write raw data as CSV files into this directory")
		metricsAddr = flag.String("metrics-addr", "",
			"serve /metrics, /statusz and /debug/pprof while benchmarks run (empty = off)")
		metricsLinger = flag.Duration("metrics-linger", 0,
			"keep the metrics server up this long after the run finishes (lets a scraper collect the final state)")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: jem-bench [flags] {table1|fig5|fig6|table2|fig7a|fig7b|fig8|fig9|ablations|coverage|all}\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	opts := jem.DefaultOptions()
	opts.Trials = *trials
	opts.Seed = *seed

	if *metricsAddr != "" {
		// Mapper instruments from every exhibit accumulate in one
		// registry; /debug/pprof makes long bench runs profilable
		// without restarting them under -cpuprofile.
		reg := obs.NewRegistry()
		opts.Metrics = reg
		srv, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jem-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "serving metrics at %s/metrics (also /statusz, /debug/pprof)\n", srv.URL())
		defer func() {
			if *metricsLinger > 0 {
				fmt.Fprintf(os.Stderr, "metrics server lingering %v\n", *metricsLinger)
				// The linger is interruptible: a signal during it ends
				// the wait early instead of holding the process hostage.
				ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
				select {
				case <-time.After(*metricsLinger):
				case <-ctx.Done():
				}
				stop()
			}
			// Graceful shutdown lets an in-flight scrape finish; fall
			// back to a hard close if it cannot within the grace period.
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := srv.Shutdown(sctx); err != nil {
				_ = srv.Close() // hard stop; the scrape was cut anyway
			}
		}()
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "jem-bench: %v\n", err)
			os.Exit(1)
		}
	}
	if err := run(flag.Arg(0), *scale, opts, os.Stdout, *csvDir); err != nil {
		fmt.Fprintf(os.Stderr, "jem-bench: %v\n", err)
		os.Exit(1)
	}
}

// writeCSVFile writes one exhibit's raw data when csvDir is set.
func writeCSVFile(csvDir, name string, write func(io.Writer) error) error {
	if csvDir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(csvDir, name))
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}

func run(cmd string, scale float64, opts jem.Options, w io.Writer, csvDir string) error {
	start := time.Now()
	defer func() {
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", cmd, time.Since(start).Round(time.Millisecond))
	}()
	if cmd == "all" {
		for _, e := range experiments.Exhibits() {
			if err := run(e.Name, scale, opts, w, csvDir); err != nil {
				return fmt.Errorf("%s: %w", e.Name, err)
			}
			fmt.Fprintln(w)
		}
		return nil
	}
	e, ok := experiments.ExhibitByName(cmd)
	if !ok {
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
	return e.Run(w, scale, opts, func(name string, write func(io.Writer) error) error {
		return writeCSVFile(csvDir, name, write)
	})
}
