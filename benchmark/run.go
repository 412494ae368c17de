package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// runResult is one workload run under one seed, traced or not.
type runResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	// Correct is false when operations of the timed phase failed; a
	// failed warm-up check aborts the run with an error instead.
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Samples summarises what the medians and percentiles rest on.
	Samples map[string]summary `json:"samples,omitempty"`
	// Failures holds the first few failed operations' errors.
	Failures []string  `json:"failures,omitempty"`
	Input    inputInfo `json:"input"`
}

// inputInfo describes the generated inputs of a run.
type inputInfo struct {
	Dataset   string  `json:"dataset"`
	SHA256    string  `json:"sha256"`
	Contigs   int     `json:"contigs"`
	ContigMbp float64 `json:"contig_mbp"`
	Reads     int     `json:"reads"`
	PassReads int     `json:"pass_reads"`
	FASTQMB   float64 `json:"fastq_mb"`
	GenerateS float64 `json:"generate_s"`
	IndexMB   float64 `json:"index_mb"`
	// PostingsPerRead is the reference pass's Stats.PostingsScanned per
	// read: the regime the dataset was generated for.
	PostingsPerRead float64 `json:"postings_per_read"`
}

// opSample is one timed operation.
type opSample struct {
	Wall time.Duration
	Res  opResult
	Err  error
	// Traced marks the operations of a traced run that ran with spans
	// on; they alternate with bare ones.
	Traced bool
}

// window is a slice of the timed phase at least windowLen long, cut at
// an operation boundary of client 0: what the process consumed in it
// and the operations that ended in it.
type window struct {
	Wall, CPU time.Duration
	Reads     int
	LatencyMS []float64
}

func (w window) readsPerS() float64 { return float64(w.Reads) / w.Wall.Seconds() }

func (w window) cpuUSPerRead() float64 { return float64(w.CPU.Nanoseconds()) / 1e3 / float64(w.Reads) }

// windowLen is short against the seconds-long slow spells of a shared
// box and long against an operation, so the windows' quartiles (printed
// with every run) show how even the phase was.
const windowLen = 250 * time.Millisecond

// timedPhase runs closed-loop operations from every client until d has
// passed; an operation that started in time is allowed to finish. With
// a tracer, every second operation runs under a root span with its
// layer spans on and the others run bare, so the two can be compared.
// It returns every operation, the windows the phase was cut into, and
// the heap objects allocated over the whole of it.
func (r *rig) timedPhase(d time.Duration, tr *tracer) (samples []opSample, windows []window, allocs uint64) {
	clients := r.clients()
	runtime.GC()
	m0 := mallocs()
	var (
		mu       sync.Mutex
		cur      window
		curStart = time.Now()
		curCPU   = cpuTime()
		wg       sync.WaitGroup
	)
	// done books a finished operation; client 0 also closes the window
	// once it is long enough (last: whatever its length).
	done := func(c int, s opSample, last bool) {
		mu.Lock()
		defer mu.Unlock()
		samples = append(samples, s)
		cur.Reads += s.Res.Reads
		cur.LatencyMS = append(cur.LatencyMS, ms(s.Wall))
		if now := time.Now(); c == 0 && (last || now.Sub(curStart) >= windowLen) {
			cpu := cpuTime()
			cur.Wall, cur.CPU = now.Sub(curStart), cpu-curCPU
			windows = append(windows, cur)
			cur, curStart, curCPU = window{}, now, cpu
		}
	}
	deadline := curStart.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for seq, last := 0, false; !last; seq++ {
				tc, traced := noTrace, tr != nil && seq%2 == 1
				start := time.Now()
				if traced {
					pass := seq*clients + c
					tc = at{tr: tr, Parent: tr.begin("bench.op", -1, pass), Pass: pass}
				}
				res, err := r.op(c, seq, tc)
				tr.end(tc.Parent, count{"reads", int64(res.Reads)})
				last = !time.Now().Before(deadline)
				done(c, opSample{Wall: time.Since(start), Res: res, Err: err, Traced: traced}, last)
			}
		}(c)
	}
	wg.Wait()
	return samples, windows, mallocs() - m0
}

// runWorkload generates the inputs for e.Seed, sets the system up
// e.Setups times (keeping the last), and measures: the end-to-end
// metrics when tr is nil, the per-layer metrics otherwise. An error
// means a set-up or warm-up check failed.
func runWorkload(def *workloadDef, e *env, tr *tracer) (*runResult, error) {
	res := &runResult{Workload: def.Name, Seed: e.Seed, Traced: tr != nil}
	t0 := time.Now()
	ds, err := generate(def.Spec.scaled(e.Scale), e.Seed)
	if err != nil {
		return nil, err
	}
	res.Input = inputInfo{
		Dataset:   ds.Spec.Name,
		SHA256:    ds.digest(),
		Contigs:   len(ds.Contigs),
		ContigMbp: float64(ds.contigBases()) / 1e6,
		Reads:     ds.reads(),
		FASTQMB:   float64(len(ds.FASTQ)) / 1e6,
	}
	res.Input.GenerateS = time.Since(t0).Seconds()
	// The inputs live on the heap for the whole run; what the system
	// under test holds is measured on top of them.
	inputsMB := liveHeapMB()

	var (
		r                 *rig
		ref               *reference
		setupS            []float64
		buildMbpS         []float64
		openMS, openYards []float64
	)
	setups := e.Setups
	if tr != nil {
		setups = 1 // setup_s is an end-to-end metric; the traced run does not report it
	}
	for i := 0; i < setups; i++ {
		if r != nil {
			r.tearDown()
		}
		if r, err = setUp(def, e, ds, ref, i); err != nil {
			return nil, fmt.Errorf("%s: set-up %d: %w", def.Name, i+1, err)
		}
		ref = r.ref
		setupS = append(setupS, r.phases.total().Seconds())
		buildMbpS = append(buildMbpS, res.Input.ContigMbp/r.phases.Build.Seconds())
		for i, d := range r.opens {
			openMS = append(openMS, ms(d))
			openYards = append(openYards, d.Seconds()/r.copies[i].Seconds())
		}
	}
	defer r.tearDown()
	res.Input.PassReads = r.nReads
	res.Input.IndexMB = float64(r.indexBytes) / 1e6
	var postings int64
	for _, p := range ref.Postings {
		postings += p
	}
	res.Input.PostingsPerRead = float64(postings) / float64(r.nReads)

	vals := make(map[string]float64)
	res.Samples = make(map[string]summary)
	d := time.Duration(e.Seconds * float64(time.Second))
	defs := endToEnd
	if tr != nil {
		defs = perLayer
		d /= 2 // the other half of the budget goes to the layer suite
	}
	samples, windows, allocs := r.timedPhase(d, tr)
	res.tally(samples)
	if tr == nil {
		r.endToEnd(vals, res, windows, allocs, inputsMB)
		if def.Tier == tierBuild {
			// The cycles' builds are this workload's samples; the
			// set-ups ran the same step and join them.
			for _, s := range samples {
				if s.Err == nil {
					buildMbpS = append(buildMbpS, res.Input.ContigMbp/s.Res.Build.Seconds())
				}
			}
		}
		// Medians over every sample: four builds (plus the cycles') and
		// setUps × openReps opens, each open as a multiple of the copy
		// made just before it.
		vals["build_mbp_per_s"] = median(buildMbpS)
		vals["index_open_over_copy"] = median(openYards)
		vals["setup_s"] = median(setupS)
		res.Samples["build_mbp_per_s"] = summarize(buildMbpS)
		res.Samples["index_open_ms"] = summarize(openMS)
		res.Samples["index_open_over_copy"] = summarize(openYards)
		res.Samples["setup_s"] = summarize(setupS)
	} else {
		vals["bench.trace_overhead_pct"] = traceOverheadPct(samples)
		if err := layerSuite(r, tr, vals, d); err != nil {
			return nil, fmt.Errorf("%s: layer suite: %w", def.Name, err)
		}
	}
	var missing []string
	res.Metrics, missing = collect(defs, vals)
	if len(missing) > 0 {
		return nil, fmt.Errorf("%s: metrics not measured: %v", def.Name, missing)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// tally counts attempted and failed operations and keeps the first
// few failure messages.
func (res *runResult) tally(samples []opSample) {
	for _, s := range samples {
		res.Attempted += s.Res.Attempted
		res.Failed += s.Res.Failed
		if s.Err != nil && len(res.Failures) < 5 {
			res.Failures = append(res.Failures, s.Err.Error())
		}
	}
}

// timedMetrics derives the timed end-to-end metrics from the whole
// phase: every window and every operation counts, so a stall or a slow
// tail moves them. The windows' own rates are reported as samples
// beside them. It returns the reads answered in the phase.
func timedMetrics(vals map[string]float64, samples map[string]summary, windows []window) (reads int) {
	var (
		all         window
		rates, cpus []float64
	)
	for _, w := range windows {
		all.Wall += w.Wall
		all.CPU += w.CPU
		all.Reads += w.Reads
		all.LatencyMS = append(all.LatencyMS, w.LatencyMS...)
		if w.Reads > 0 {
			rates = append(rates, w.readsPerS())
			cpus = append(cpus, w.cpuUSPerRead())
		}
	}
	samples["window_reads_per_s"] = summarize(rates)
	samples["window_cpu_us_per_read"] = summarize(cpus)
	samples["op_latency_ms"] = summarize(all.LatencyMS)
	if all.Reads > 0 {
		vals["reads_per_s"] = all.readsPerS()
		vals["cpu_us_per_read"] = all.cpuUSPerRead()
	}
	vals["request_p50_ms"] = percentile(all.LatencyMS, 50)
	vals["request_p95_ms"] = percentile(all.LatencyMS, 95)
	return all.Reads
}

// endToEnd adds the counted end-to-end metrics of an untraced timed
// phase to the timed ones.
func (r *rig) endToEnd(vals map[string]float64, res *runResult, windows []window, allocs uint64, inputsMB float64) {
	if reads := timedMetrics(vals, res.Samples, windows); reads > 0 {
		vals["allocs_per_read"] = float64(allocs) / float64(reads)
	}
	_, mapped := r.mapper.IndexMemory()
	vals["live_heap_mb"] = liveHeapMB() - inputsMB + float64(mapped)/1e6
	vals["recall"] = r.ref.Quality.Recall()
	vals["precision"] = r.ref.Quality.Precision()
	vals["answered_share"] = 1 - float64(res.Failed)/float64(res.Attempted)
}

// traceOverheadPct compares the traced and the bare operations of a
// traced run: how much slower the median traced one was, in percent.
func traceOverheadPct(samples []opSample) float64 {
	var on, off []float64
	for _, s := range samples {
		if s.Err != nil {
			continue
		}
		if s.Traced {
			on = append(on, s.Wall.Seconds())
		} else {
			off = append(off, s.Wall.Seconds())
		}
	}
	if len(on) == 0 || len(off) == 0 {
		return 0
	}
	return (median(on)/median(off) - 1) * 100
}
