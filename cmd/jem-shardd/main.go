// Command jem-shardd is a shard server: it loads a subset of the
// shards of a saved (JEMIDX06) sketch index and answers scatter-
// gather count queries from coordinators (jem-serve -shard-servers,
// or any jem.Open with OpenOptions.ShardServers) over the shardnet
// wire protocol. A fleet of jem-shardd processes that collectively
// own every shard of one index replaces the in-process sharded table,
// letting an index larger than one machine's memory serve from many.
//
// Usage:
//
//	jem-shardd -index /data/asm.jemidx -shards 0,2,5-7 -listen :8855
//	jem-shardd -index /data/asm.jemidx -shards 1/4     -listen unix:/tmp/s1.sock
//
// -shards selects which shards this process owns: explicit ids and
// ranges ("0,2,5-7"), a stripe "k/n" (every shard ≡ k mod n), or
// "all". Only the selected payloads are read and decoded; the rest of
// the index file is skipped. On startup the server prints one line
//
//	listening <address>
//
// to stdout once the socket is bound (with the kernel-chosen port for
// ":0" listens), so supervisors and tests can scrape the address.
// SIGINT/SIGTERM shut the server down; in-flight queries finish,
// blocked ones see their connections closed. See docs/DISTRIBUTED.md.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/shardnet"
)

func main() {
	var (
		listen      = flag.String("listen", ":8855", "listen address: host:port (TCP) or unix:/path")
		index       = flag.String("index", "", "saved (JEMIDX06) index file to serve from (required)")
		shards      = flag.String("shards", "all", "shards to own: ids and ranges (\"0,2,5-7\"), a stripe (\"k/n\"), or \"all\"")
		memory      = flag.String("memory", "", "how owned shards are held: heap, mmap, or auto (see docs/MEMORY.md)")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics and /statusz on this address (empty = off)")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: jem-shardd -index path [-shards spec] [-listen addr]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *index == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*listen, *index, *shards, *memory, *metricsAddr); err != nil {
		fmt.Fprintln(os.Stderr, "jem-shardd:", err)
		os.Exit(1)
	}
}

// parseMemory maps the -memory flag to a core spec. The empty default
// is heap — the historical jem-shardd behavior — so turning on page
// sharing across a co-located fleet is an explicit choice.
func parseMemory(s string) (core.MemorySpec, error) {
	switch s {
	case "", "heap":
		return core.MemorySpec{Mode: core.MemoryHeap}, nil
	case "mmap":
		return core.MemorySpec{Mode: core.MemoryMMap}, nil
	case "auto":
		return core.MemorySpec{Mode: core.MemoryAuto}, nil
	}
	return core.MemorySpec{}, fmt.Errorf("bad -memory %q (want heap, mmap, or auto)", s)
}

func run(listen, index, shardSpec, memory, metricsAddr string) error {
	keep, err := parseShardSpec(shardSpec)
	if err != nil {
		return err
	}
	spec, err := parseMemory(memory)
	if err != nil {
		return err
	}
	tables, meta, mapping, err := core.OpenShardSubset(index, keep, spec)
	if err != nil {
		return err
	}
	if mapping != nil {
		defer func() { _ = mapping.Close() }()
	}
	srv, err := shardnet.NewServer(tables, meta)
	if err != nil {
		return err
	}
	network, address := "tcp", listen
	if rest, ok := strings.CutPrefix(listen, "unix:"); ok {
		network, address = "unix", rest
	}
	ln, err := net.Listen(network, address)
	if err != nil {
		return err
	}
	srv.Start(ln)
	bound := ln.Addr().String()
	if network == "unix" {
		bound = "unix:" + bound
	}
	// The scrape line supervisors and tests wait for; flushed before any
	// query can arrive.
	fmt.Println("listening", bound)

	if metricsAddr != "" {
		reg := obs.NewRegistry()
		reg.Gauge("jem_shardd_shards_owned", "shards this server owns").Set(float64(len(srv.Owned())))
		ms, err := obs.Serve(metricsAddr, reg)
		if err != nil {
			_ = srv.Close()
			return fmt.Errorf("metrics server: %w", err)
		}
		defer func() { _ = ms.Close() }()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	return srv.Close()
}

// parseShardSpec compiles the -shards flag into a keep predicate:
// "all", a "k/n" stripe, or a comma-separated list of ids and "a-b"
// ranges.
func parseShardSpec(spec string) (func(int) bool, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "all" {
		return func(int) bool { return true }, nil
	}
	if ks, ns, ok := strings.Cut(spec, "/"); ok && !strings.ContainsAny(spec, ",-") {
		k, err1 := strconv.Atoi(ks)
		n, err2 := strconv.Atoi(ns)
		if err1 != nil || err2 != nil || n <= 0 || k < 0 || k >= n {
			return nil, fmt.Errorf("bad stripe spec %q (want k/n with 0 ≤ k < n)", spec)
		}
		return func(sd int) bool { return sd%n == k }, nil
	}
	set := make(map[int]bool)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if lo, hi, ok := strings.Cut(part, "-"); ok {
			a, err1 := strconv.Atoi(lo)
			b, err2 := strconv.Atoi(hi)
			if err1 != nil || err2 != nil || a < 0 || b < a {
				return nil, fmt.Errorf("bad shard range %q", part)
			}
			for sd := a; sd <= b; sd++ {
				set[sd] = true
			}
			continue
		}
		sd, err := strconv.Atoi(part)
		if err != nil || sd < 0 {
			return nil, fmt.Errorf("bad shard id %q", part)
		}
		set[sd] = true
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("shard spec %q selects nothing", spec)
	}
	return func(sd int) bool { return set[sd] }, nil
}
