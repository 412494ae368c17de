package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// toyEnv sizes every workload down to a 200 kbp (d10) or 680 kbp
// (d34r) genome, one set-up and a fraction of a second of timed phase.
func toyEnv(t *testing.T) *env {
	return &env{Seed: 1, Seconds: 0.2, Workers: 2, Scale: 0.02, Setups: 1, WorkDir: t.TempDir()}
}

func checkMetrics(t *testing.T, res *runResult, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d %v", res.Workload, res.Correct, res.Attempted, res.Failed, res.Failures)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", res.Workload, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s not emitted", res.Workload, d.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s = %v", res.Workload, d.Name, m.Value)
		case m.Unit != d.Unit:
			t.Errorf("%s: %s has unit %q, want %q", res.Workload, d.Name, m.Unit, d.Unit)
		}
	}
}

// Every workload at toy size, untraced: every end-to-end metric is
// emitted, finite, non-zero and carries its unit; no operation fails.
func TestSmokeEndToEnd(t *testing.T) {
	e := toyEnv(t)
	digests := make(map[string]string)
	for i := range workloads {
		def := &workloads[i]
		res, err := runWorkload(def, e, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkMetrics(t, res, endToEnd)
		for _, d := range endToEnd {
			if res.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: %s = %v, want a positive value", def.Name, d.Name, res.Metrics[d.Name].Value)
			}
		}
		if res.Metrics["answered_share"].Value != 1 {
			t.Errorf("%s: answered_share %v on a healthy run", def.Name, res.Metrics["answered_share"].Value)
		}
		// Workloads on the same dataset see the same bytes.
		if prev, ok := digests[res.Input.Dataset]; ok && prev != res.Input.SHA256 {
			t.Errorf("%s: dataset %s digest changed between workloads", def.Name, res.Input.Dataset)
		}
		digests[res.Input.Dataset] = res.Input.SHA256
	}
}

// Every workload at toy size, traced: every layer metric is emitted,
// and the trace file parses into closed, well-parented spans covering
// every layer.
func TestSmokeTraced(t *testing.T) {
	e := toyEnv(t)
	for i := range workloads {
		def := &workloads[i]
		tr := newTracer()
		res, err := runWorkload(def, e, tr)
		if err != nil {
			t.Fatal(err)
		}
		checkMetrics(t, res, perLayer)
		if v := res.Metrics["shardnet.shards_lost"].Value; v != 0 {
			t.Errorf("%s: %v shards lost on a healthy fleet", def.Name, v)
		}
		if v := res.Metrics["shardnet.rpcs_per_read"].Value; v <= 0 {
			t.Errorf("%s: shardnet.rpcs_per_read = %v", def.Name, v)
		}

		path := filepath.Join(e.WorkDir, def.Name+".trace.json")
		if err := tr.writeFile(path, def.Name, e.Seed); err != nil {
			t.Fatal(err)
		}
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc traceFile
		if err := json.Unmarshal(buf, &doc); err != nil {
			t.Fatalf("%s: trace does not parse: %v", def.Name, err)
		}
		seen := make(map[string]bool)
		for i, s := range doc.Spans {
			if s.ID != i || s.Parent >= i || s.EndNS < s.StartNS || s.Name == "" {
				t.Fatalf("%s: bad span %+v at %d", def.Name, s, i)
			}
			seen[s.Name] = true
		}
		for _, name := range []string{"bench.op", "seq.parse", "core.mapsegment", "minimizer.winnow", "sketch.trialhash", "sketch.lookup",
			"jem.format", "jem.stream", "serve.request", "shardnet.query_shard", "core.add_subjects", "sketch.freeze"} {
			if !seen[name] {
				t.Errorf("%s: no %s span in the trace", def.Name, name)
			}
		}
	}
}

// A mismatch between what a tier serves and the reference must fail
// the run, not be measured.
func TestWarmupMismatchFailsSetUp(t *testing.T) {
	e := toyEnv(t)
	def := findWorkload("hifi_stream")
	ds, err := generate(def.Spec.scaled(e.Scale), e.Seed)
	if err != nil {
		t.Fatal(err)
	}
	r, err := setUp(def, e, ds, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref := *r.ref
	r.tearDown()
	ref.TSV = bytes.Replace(ref.TSV, []byte("prefix"), []byte("suffix"), 1)
	if _, err := setUp(def, e, ds, &ref, 1); err == nil || !strings.Contains(err.Error(), "differ") {
		t.Errorf("set-up against a corrupted reference: %v", err)
	}
	ref = *r.ref
	ref.Postings = append([]int64{ref.Postings[0] + 1}, ref.Postings[1:]...)
	if _, err := setUp(def, e, ds, &ref, 2); err == nil || !strings.Contains(err.Error(), "postings") {
		t.Errorf("set-up against a reference with another posting count: %v", err)
	}
}

// BENCHMARK.json is the contract the driver reads; the tables in
// metrics.go and workloads.go are what the program emits. They must
// say the same thing.
func TestBenchmarkJSONMatches(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", doc.Paths, doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) || len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d workloads, %d end-to-end and %d per-layer metrics in BENCHMARK.json; the program has %d, %d and %d",
			len(doc.Workloads), len(doc.EndToEnd), len(doc.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why || len(w.Why) > 200 {
			t.Errorf("workload %d: %+v, program has %s: %s", i, w, workloads[i].Name, workloads[i].Why)
		}
	}
	for i, m := range doc.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %d: %+v, program has %+v", i, m, d)
		}
	}
	for i, m := range doc.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: %+v, program has %+v", i, m, d)
		}
	}
}

// The timed metrics cover the whole phase: windows in which the system
// stalled pull the throughput down and their operations are the p95,
// so code with a slow tail cannot read as fast as code without one.
func TestTimedMetricsSeeSlowWindows(t *testing.T) {
	var windows []window
	for i := 0; i < 9; i++ { // nine even windows: 10 operations of 25 ms, 100 reads each
		w := window{Wall: 250 * time.Millisecond, CPU: 400 * time.Millisecond, Reads: 1000}
		for j := 0; j < 10; j++ {
			w.LatencyMS = append(w.LatencyMS, 25)
		}
		windows = append(windows, w)
	}
	for i := 0; i < 3; i++ { // three stalled ones: 2 operations of 250 ms
		windows = append(windows, window{Wall: 500 * time.Millisecond, CPU: 100 * time.Millisecond, Reads: 200, LatencyMS: []float64{250, 250}})
	}
	vals, samples := make(map[string]float64), make(map[string]summary)
	if reads := timedMetrics(vals, samples, windows); reads != 9600 {
		t.Errorf("reads = %d, want 9600", reads)
	}
	// 9600 reads in 3.75 s, 3.9 s of CPU.
	if got, want := vals["reads_per_s"], 2560.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("reads_per_s = %v, want %v (the even windows alone make 4000)", got, want)
	}
	if got, want := vals["cpu_us_per_read"], 406.25; math.Abs(got-want) > 1e-9 {
		t.Errorf("cpu_us_per_read = %v, want %v", got, want)
	}
	if vals["request_p50_ms"] != 25 || vals["request_p95_ms"] != 250 {
		t.Errorf("p50 %v, p95 %v; want 25 and 250: 6 of the 96 operations stalled", vals["request_p50_ms"], vals["request_p95_ms"])
	}
	if s := samples["window_reads_per_s"]; s.N != 12 || s.Median != 4000 {
		t.Errorf("window_reads_per_s = %+v, want 12 windows with median 4000", s)
	}
}

// What a result means is fixed by the program, not by its flags: the
// scale and the set-up count are constants, and -trace-out only names
// the span file of a run that -trace 1 made a traced one.
func TestRunFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-scale", "0.5"},
		{"-setups", "1"},
		{"-trace-out", "t.json"},
		{"-trace", "1", "-trace-out", "t.json"}, // five workloads, one file
		{"-trace", "2"},
		{"-workload", "nope"},
	} {
		var out bytes.Buffer
		if err := cmdRun(append(args, "-workdir", t.TempDir()), &out); err == nil {
			t.Errorf("run %v: no error", args)
		}
		if out.Len() > 0 {
			t.Errorf("run %v printed a result: %s", args, out.Bytes())
		}
	}
}
