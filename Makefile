# Convenience targets for the JEM-mapper reproduction.

GO ?= go

.PHONY: all build vet lint lint-tests lint-fix api-update test test-short exhibits exhibits-update mutants mutants-update fault-test serve-smoke dist-smoke obs-smoke mem-smoke bench bench-smoke metrics-demo fuzz repro repro-quick clean

all: build vet lint lint-tests test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Custom static analysis (cmd/jem-vet, internal/lint): hot-path
# allocation discipline and serialization error sinks, plus the
# CFG-backed analyzers (context propagation, span lifecycle, goroutine
# supervision). The whole repo must pass clean; see
# docs/STATIC_ANALYSIS.md. The dead-code gate and the exported-API
# golden are tests in internal/lint and run under `make test`.
lint:
	$(GO) run ./cmd/jem-vet ./...

# lint-tests re-runs the analyzers over the test variants of every
# package (_test.go files included, loaded via `go list -test`), so
# test helpers meet the same error-handling and span-hygiene bar.
lint-tests:
	$(GO) run ./cmd/jem-vet -tests ./...

# lint-fix auto-fixes what tooling can (gofmt -s), then prints the
# remaining jem-vet diagnostics verbosely with clickable file:line:
# prefixes (suppressed findings included).
lint-fix:
	gofmt -s -w .
	$(GO) run ./cmd/jem-vet -v ./...

# Re-record the exported-API golden (TestAPISurface, docs/API.md §5)
# after a deliberate API change, and commit the diff.
api-update:
	$(GO) test ./internal/lint -run TestAPISurface -update

# The layered benchmark (benchmark/, its own module) compiles against
# internal/*; vetting and smoke-testing it here makes a refactor that
# breaks it fail locally, not in the benchmark driver. `go test ./...`
# here runs without -race, so it includes TestExhibitGoldens (built
# with !race only); the exhibits target runs that test alone.
test:
	$(GO) test ./...
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark ./...

test-short:
	$(GO) test -short ./...

# The pinned paper exhibits (Table I, Figs. 5, 6 and 9 at scale 0.002;
# see EXPERIMENTS.md, "Pinned exhibits"). The test is excluded from
# -race builds, so CI runs this target as its own non-race step.
EXHIBIT_GOLDENS = internal/experiments/testdata/exhibits
exhibits:
	$(GO) test -count=1 -run '^TestExhibitGoldens$$' ./internal/experiments/

# Re-record the exhibit goldens with jem-bench itself. A change that
# moves them carries the before/after table in its CHANGES.md line.
exhibits-update:
	for e in table1 fig5 fig6 fig9; do \
		$(GO) run ./cmd/jem-bench -scale 0.002 -csv $(EXHIBIT_GOLDENS) $$e >/dev/null || exit 1; \
	done

# Plant every defect of internal/oracle/testdata/mutants/list.json in
# turn (go test -overlay, no tree copy), run one fixed test set against
# each, and write the kill table to mutants_table.md. It fails on a
# mutant that does not build and on a survivor that the survivors file
# does not explain. About 20 minutes on two cores; not part of `test`.
MUTANTS = $(GO) test -tags mutants -count=1 -timeout 90m -run '^TestMutants$$' ./internal/oracle/
mutants:
	$(MUTANTS) -v

# Re-record internal/oracle/testdata/mutants/survivors.json from a run,
# keeping the reasons it already gives. A new survivor gets an empty
# reason, which the next `make mutants` refuses until one is written.
mutants-update:
	$(MUTANTS) -update

# Fault-injection and robustness tests under the race detector:
# cancellation, quarantine, injected I/O errors, worker panics,
# index corruption, the SIGINT-mid-stream CLI test, the read-set
# driver's goldens and degraded-answer errors, every Stream output
# format (validation, SAM/PAF rows, lost shards), the allocation-free
# session lookup guard, and the backend matrix with its metamorphic
# checks (internal/oracle). See docs/ROBUSTNESS.md for the
# failure-path contracts these prove.
fault-test:
	$(GO) test -race -run 'TestMapStream|TestMapReads|TestMapper|TestIndex|TestWriteIndex|TestMapEnds|TestReadSet|TestStream|TestWriteSAM|TestOptionsValidate|TestSessionZeroAlloc' . ./internal/core/
	$(GO) test -race ./internal/fault/ ./internal/seq/ ./internal/oracle/

# End-to-end serving tests under the race detector: concurrent
# byte-identity with the CLI, admission control, deadlines, hot-swap
# under load, fault injection. See docs/SERVING.md.
serve-smoke:
	$(GO) test -race ./internal/serve/
	$(GO) test -race -run TestConcurrentStreamStatsSumToRegistry .

# Distributed shard serving under the race detector: the shardnet
# protocol/coordinator suite (deadlines, retries, cancellation,
# degraded answers), the simulated ranks, core's fleet open (degraded
# answers, cancellation, and the fingerprint check that comes before
# any sketcher is built), the facade-level degraded-answer and
# fingerprint tests, and the multi-process jem-shardd end-to-end with
# fault injection. Fleet byte identity is a row of internal/oracle's
# matrix, and so is the degraded answer of a fleet that loses a shard
# while mapping positionally: the lost-shard row runs here too. See
# docs/DISTRIBUTED.md for the contracts these prove.
dist-smoke:
	$(GO) test -race ./internal/shardnet/ ./internal/dist/
	$(GO) test -race -run 'TestBackendMatrix$$/lost-shard' ./internal/oracle/
	$(GO) test -race -run 'TestRemote|TestLoadAllocates' ./internal/core/
	$(GO) test -race -run 'TestOpenShardServers|TestServeShardsLostHeader|TestDistE2EMultiProcess' .

# Request-scoped observability tests under the race detector: the one
# bounded ring type (TestRingOverwritesOldest, with the rest of
# internal/obs), trace propagation through Stream, the X-JEM-Trace-Id
# header contract, tail sampling, the flight recorder, the request log,
# the pinned /debug/* wire shapes, the 10k-request bounded-memory
# soak, and Stream's Stats against the registry (the writer publishes
# numbers the reader and workers hand it). See docs/OBSERVABILITY.md.
obs-smoke:
	$(GO) test -race -count=2 ./internal/obs/
	$(GO) test -race -run 'TestTrace|TestSlowRequest|TestRequestLog|TestObsSoak|TestDebugWireShapes' ./internal/serve/
	$(GO) test -race -run 'TestStreamAttachesSpans|TestStreamSpansUnsharded|TestMapChildSpan|TestMapStreamStatsMatchRegistry' .

# Out-of-core index serving under the race detector — the whole suite
# of the one index loader, whose shards load in parallel: the JEMIDX06
# corruption matrix (truncation, payload/manifest byte flips, each
# caught at open under heap, mmap and auto), the sharded round trips
# and their per-shard spans, checksum and byte-flip detection, the
# allocation bound on crafted manifests, heap/mmap/auto residence
# accounting, and the two-process shared-mapping test (byte identity
# with the reference mapper is internal/oracle's backend matrix). See
# docs/MEMORY.md for the contracts these prove.
mem-smoke:
	$(GO) test -race -run 'TestOpenIndexFile|TestOpenShardSubset|TestShardedIndex|TestIndexChecksum|TestIndexByteFlip|TestLoadAllocates' ./internal/core/
	$(GO) test -race -run 'TestOpenMemory|TestSharedMappingTwoProcesses' .
	$(GO) test -race -run TestServeMemoryAccounting ./internal/serve/

# Full benchmark sweep (micro-benchmarks + one bench per timing exhibit).
bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of every benchmark — a compile-and-run smoke test, not
# a measurement (CI runs this to keep the benches from bit-rotting).
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Performance numbers come from the layered benchmark, not from make:
#   go run -C benchmark . run -out A.json      (see benchmark/README.md)
#   go run -C benchmark . compare A.json B.json

# End-to-end observability demo: synthesize a tiny dataset, run the
# streaming mapper with a live metrics server, and scrape /metrics and
# /statusz while it serves. See docs/OBSERVABILITY.md.
METRICS_ADDR ?= 127.0.0.1:9921
metrics-demo:
	rm -rf /tmp/jem-metrics-demo && mkdir -p /tmp/jem-metrics-demo
	$(GO) run ./cmd/jem-simulate -name demo -len 300000 -hifi-cov 5 -short-cov 25 -out /tmp/jem-metrics-demo
	$(GO) run ./cmd/jem-assemble -o /tmp/jem-metrics-demo/contigs.fasta /tmp/jem-metrics-demo/demo.illumina.fastq
	$(GO) run ./cmd/jem-mapper -metrics-addr $(METRICS_ADDR) -metrics-linger 3s \
		-o /tmp/jem-metrics-demo/mapping.tsv \
		/tmp/jem-metrics-demo/contigs.fasta /tmp/jem-metrics-demo/demo.hifi.fastq & \
	pid=$$!; \
	sleep 2; \
	echo "--- /metrics (excerpt) ---"; \
	curl -sf http://$(METRICS_ADDR)/metrics | grep -E '^jem_' | head -20; \
	echo "--- /statusz ---"; \
	curl -sf http://$(METRICS_ADDR)/statusz; \
	wait $$pid

# Short fuzz sessions over the fuzz targets.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz FuzzReader -fuzztime $(FUZZTIME) ./internal/seq/
	$(GO) test -fuzz FuzzChunkedReader -fuzztime $(FUZZTIME) ./internal/seq/
	$(GO) test -fuzz FuzzAppendExtract -fuzztime $(FUZZTIME) ./internal/minimizer/
	$(GO) test -fuzz FuzzViewFlatFrozen -fuzztime $(FUZZTIME) ./internal/sketch/
	$(GO) test -fuzz FuzzQuerySketch -fuzztime $(FUZZTIME) ./internal/sketch/
	$(GO) test -fuzz FuzzAppendSubject -fuzztime $(FUZZTIME) ./internal/sketch/
	$(GO) test -fuzz FuzzReadIndex -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -fuzz FuzzFrames -fuzztime $(FUZZTIME) ./internal/shardnet/
	$(GO) test -fuzz FuzzReadTSV -fuzztime $(FUZZTIME) .

# Regenerate every table and figure (see EXPERIMENTS.md).
repro:
	$(GO) run ./cmd/jem-bench -scale 0.02 -csv exhibits all | tee experiments_output.txt

repro-quick:
	$(GO) run ./cmd/jem-bench -scale 0.002 all

# clean removes only scratch artifacts. The CSVs under exhibits/ are
# committed fixtures; `make repro` regenerates them in place, so they
# must survive a clean checkout + make clean.
clean:
	rm -f *.test cpu.prof mem.prof *.pprof
