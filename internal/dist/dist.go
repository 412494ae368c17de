// Package dist drives JEM-mapper through the distributed-memory steps
// S1–S4 of §III-C on the simulated MPI runtime:
//
//	S1 (load input)      block-partition queries and subjects by bases
//	S2 (sketch subjects) each rank sketches its local contigs
//	S3 (gather sketch)   allgather the per-rank sketch records into S_global
//	S4 (map queries)     each rank maps its local query segments
//
// The output mapping is bit-identical to the shared-memory path for
// any p (ties are broken by subject id, and the table's posting-list
// order does not influence best-hit selection), which the tests
// assert.
package dist

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/seq"
	"repro/internal/sketch"
)

// Config configures a distributed run.
type Config struct {
	// P is the number of simulated ranks.
	P int
	// Params are the JEM sketch parameters; Params.L doubles as the
	// end-segment length, as in the paper.
	Params sketch.Params
	// Model is the communication cost model; zero value means the
	// paper's 10 Gbps Ethernet.
	Model mpi.CostModel
	// MaxParallel bounds physical concurrency during simulation (≤0 =
	// GOMAXPROCS).
	MaxParallel int
	// Tracer, when non-nil, receives one root span per rank
	// ("rank00", "rank01", …) with child spans named after the
	// paper's phase breakdown: sketch (S2), gather (S3 serialize),
	// map (S4). Spans record real wall time on this rank's goroutine,
	// complementing the Timeline's simulated clock.
	Tracer *obs.Tracer
}

// Output bundles the mapping and its simulated timeline.
type Output struct {
	Results  []core.Result
	Timeline mpi.Timeline
	// QuerySegments is the number of end segments mapped (the unit of
	// Fig. 7b's throughput).
	QuerySegments int
	// TableBytes is the allgathered sketch payload size: the real bytes
	// of every rank's records.
	TableBytes int64
	// PostingsScanned is the sketch-table postings the ranks' lookups
	// examined, summed over ranks.
	PostingsScanned int64
	// Trace is the tracer the run reported its per-rank phase spans
	// to (Config.Tracer if set, otherwise a run-private tracer).
	Trace *obs.Tracer
}

// Throughput returns query segments per second of simulated S4 time.
func (o *Output) Throughput() float64 {
	st := o.Timeline.Step("S4 map queries")
	if st == nil || st.Sim == 0 {
		return 0
	}
	return float64(o.QuerySegments) / st.Sim.Seconds()
}

// Run executes the distributed JEM-mapper.
func Run(contigs, reads []seq.Record, cfg Config) (*Output, error) {
	if cfg.P <= 0 {
		return nil, fmt.Errorf("dist: p=%d must be positive", cfg.P)
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.Model == (mpi.CostModel{}) {
		cfg.Model = mpi.Ethernet10G()
	}
	sim := mpi.New(cfg.P, cfg.Model, cfg.MaxParallel)

	// One root span per rank; each simulated step adds a child named
	// after the paper's phase breakdown (sketch, gather, map). These
	// record real wall time per rank goroutine — the skew a live
	// /statusz render shows is the load imbalance Fig. 6 discusses.
	tracer := cfg.Tracer
	if tracer == nil {
		tracer = obs.NewTracer()
	}
	ranks := make([]*obs.Span, cfg.P)
	for r := 0; r < cfg.P; r++ {
		ranks[r] = tracer.Start(fmt.Sprintf("rank%02d", r))
	}
	defer func() {
		for _, sp := range ranks {
			sp.End()
		}
	}()

	sk, err := sketch.NewSketcher(cfg.Params)
	if err != nil {
		return nil, err
	}

	// S1: load input. Partition subjects and queries into contiguous
	// byte-balanced rank shares.
	subjParts := make([][2]int, cfg.P)
	readParts := make([][2]int, cfg.P)
	sim.Step("S1 load input", func(rank int) {
		subjParts[rank] = partitionByBases(contigs, cfg.P, rank)
		readParts[rank] = partitionByBases(reads, cfg.P, rank)
	})

	// S2: each rank sketches its contigs into its own appender on the
	// builder of S_global — the per-rank local table of the paper, as a
	// run of fixed-width records.
	build := sketch.NewBuilder(cfg.Params.T)
	locals := make([]*sketch.Appender, cfg.P)
	sim.Step("S2 sketch subjects", func(rank int) {
		ranks[rank].Time("sketch", func() {
			locals[rank] = build.Appender()
			lo, hi := subjParts[rank][0], subjParts[rank][1]
			for i := lo; i < hi; i++ {
				sk.AppendSubject(locals[rank], int32(i), contigs[i].Seq, false)
			}
		})
	})

	// S3: gather. The runs are their own wire format, so "serializing"
	// one is measuring it; charge the modeled allgather for the real
	// bytes, then build S_global (executed once, counted as the
	// per-rank merge every process performs).
	sizes := make([]int64, cfg.P)
	sim.Step("S3 serialize sketch", func(rank int) {
		ranks[rank].Time("gather", func() { sizes[rank] = locals[rank].Bytes() })
	})
	var total int64
	for _, n := range sizes {
		total += n
	}
	sim.Allgather("S3 allgather sketch", total)
	// Every rank turns the gathered runs into its S_global by the same
	// sort-and-lay-out every table is built with — no hashing — which
	// keeps this step from dominating the runtime the way a hash-map
	// rebuild would.
	var global *sketch.ShardedFrozen
	sim.SequentialStep("S3 merge sketch", func() { global, err = build.Freeze(1, 0, nil) })
	if err != nil {
		return nil, err
	}
	// Subject metadata is small and replicated on every rank.
	mapper, err := core.NewSealed(cfg.Params, core.SubjectsOf(contigs), global)
	if err != nil {
		return nil, err
	}

	// S4: map local queries. Ranks hold contiguous read ranges in rank
	// order, so concatenating their rows is already (read, kind) order.
	perRank := make([][]core.Result, cfg.P)
	postings := make([]int64, cfg.P)
	sim.Step("S4 map queries", func(rank int) {
		ranks[rank].Time("map", func() {
			sess := mapper.NewSession()
			for i := readParts[rank][0]; i < readParts[rank][1]; i++ {
				perRank[rank] = core.AppendEnds(perRank[rank], sess, i, reads[i], cfg.Params.L, (*core.Session).MapEnd)
			}
			postings[rank] = sess.PostingsScanned()
		})
	})
	var results []core.Result
	var scanned int64
	for rank, rows := range perRank {
		results = append(results, rows...)
		scanned += postings[rank]
	}

	return &Output{
		Results:         results,
		Timeline:        sim.Timeline(),
		QuerySegments:   len(results),
		TableBytes:      total,
		PostingsScanned: scanned,
		Trace:           tracer,
	}, nil
}

// partitionByBases returns rank r's contiguous share of records,
// balanced by total bases rather than record count (the paper's S1
// gives each process O(N/p) subject and O(M/p) query bases).
func partitionByBases(records []seq.Record, p, r int) [2]int {
	var total int64
	for i := range records {
		total += int64(len(records[i].Seq))
	}
	targetLo := total * int64(r) / int64(p)
	targetHi := total * int64(r+1) / int64(p)
	lo, hi := len(records), len(records)
	var acc int64
	for i := range records {
		if acc >= targetLo && lo == len(records) {
			lo = i
		}
		if acc >= targetHi {
			hi = i
			break
		}
		acc += int64(len(records[i].Seq))
	}
	if lo > hi {
		lo = hi
	}
	return [2]int{lo, hi}
}
