package main

// metricDef names one metric, its unit and which way is better. For an
// end-to-end metric Bound is the share of the baseline median by which
// it may worsen before compare calls it worse; BENCHMARK.json carries
// the same table (TestBenchmarkJSONMatches pins the two together).
// Moves says, for a layer metric, which end-to-end metric it should
// move and where.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
	Moves  string
}

// endToEnd are the metrics a user of the system would see, measured
// with the benchmark's tracing off. Every workload emits every one; an
// operation is a Stream call (hifi_stream, ends_repeat, fleet_p8), a
// request (serve_http) or a build-save-open-probe cycle (index_build),
// and reads are the reads answered in the timed phase. The timed
// metrics are taken over the whole phase (run.go) and their bounds sit
// at the contract's cap: on the shared 2-core box they were sized on
// ten consecutive runs of one binary spread by 5-19 % on an ordinary
// hour and by up to 35 % on a bad one, and a tighter bound would reject
// changes that changed nothing (README.md, Steadiness). The counted ones
// are as tight as ten seeds allow.
var endToEnd = []metricDef{
	{Name: "reads_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_us_per_read", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_read", Unit: "count", Better: "lower", Bound: 0.03},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "request_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "request_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "build_mbp_per_s", Unit: "Mbp/s", Better: "higher", Bound: 0.25},
	{Name: "index_open_over_copy", Unit: "ratio", Better: "lower", Bound: 0.25},
	{Name: "recall", Unit: "ratio", Better: "higher", Bound: 0.04},
	{Name: "precision", Unit: "ratio", Better: "higher", Bound: 0.04},
	{Name: "answered_share", Unit: "ratio", Better: "higher", Bound: 0.001},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are the single-layer metrics of the traced run, named
// module.metric.
var perLayer = []metricDef{
	{Name: "seq.parse_ns_per_read", Unit: "ns", Better: "lower", Moves: "cpu_us_per_read on hifi_stream; ~0 on ends_repeat"},
	{Name: "seq.parse_mb_per_s", Unit: "MB/s", Better: "higher", Moves: "cpu_us_per_read on hifi_stream"},
	{Name: "seq.allocs_per_read", Unit: "count", Better: "lower", Moves: "allocs_per_read on the stream workloads"},

	{Name: "minimizer.winnow_ns_per_read", Unit: "ns", Better: "lower", Moves: "cpu_us_per_read and reads_per_s on every stream workload"},
	{Name: "minimizer.winnow_ns_per_base", Unit: "ns", Better: "lower", Moves: "same, size-independent"},
	{Name: "minimizer.tuples_per_segment", Unit: "count", Better: "lower", Moves: "sketch.trialhash_ns_per_read"},
	{Name: "minimizer.subject_ns_per_base", Unit: "ns", Better: "lower", Moves: "build_mbp_per_s on index_build"},

	{Name: "sketch.trialhash_ns_per_read", Unit: "ns", Better: "lower", Moves: "cpu_us_per_read on hifi_stream, less on ends_repeat"},
	{Name: "sketch.lookup_ns_per_read", Unit: "ns", Better: "lower", Moves: "cpu_us_per_read on ends_repeat"},
	{Name: "sketch.postings_per_read", Unit: "count", Better: "lower", Moves: "sketch.lookup_ns_per_read, core.count_self_ns_per_read"},
	{Name: "sketch.probe_hit_share", Unit: "ratio", Better: "higher", Moves: "recall"},
	{Name: "sketch.subject_sketch_ns_per_base", Unit: "ns", Better: "lower", Moves: "build_mbp_per_s on index_build"},
	{Name: "sketch.freeze_s", Unit: "s", Better: "lower", Moves: "build_mbp_per_s, setup_s"},
	{Name: "sketch.index_mb", Unit: "MB", Better: "lower", Moves: "live_heap_mb"},

	{Name: "core.mapsegment_ns_per_read", Unit: "ns", Better: "lower", Moves: "cpu_us_per_read on every workload"},
	{Name: "core.count_self_ns_per_read", Unit: "ns", Better: "lower", Moves: "cpu_us_per_read on ends_repeat; flat on hifi_stream"},
	{Name: "core.postings_scanned_per_read", Unit: "count", Better: "lower", Moves: "core.count_self_ns_per_read"},
	{Name: "core.mapped_share", Unit: "ratio", Better: "higher", Moves: "recall"},
	{Name: "core.session_new_us", Unit: "us", Better: "lower", Moves: "request_p50_ms on serve_http only"},
	{Name: "core.add_subjects_s", Unit: "s", Better: "lower", Moves: "build_mbp_per_s, setup_s"},
	{Name: "core.index_write_ms", Unit: "ms", Better: "lower", Moves: "setup_s; request_p50_ms on index_build"},
	{Name: "core.open_heap_ms", Unit: "ms", Better: "lower", Moves: "index_open_over_copy on the heap workloads"},
	{Name: "core.open_mmap_ms", Unit: "ms", Better: "lower", Moves: "index_open_over_copy on index_build and serve_http"},

	{Name: "jem.read_wall_ns_per_read", Unit: "ns", Better: "lower", Moves: "reads_per_s once the reader goroutine is the bottleneck"},
	{Name: "jem.map_wall_ns_per_read", Unit: "ns", Better: "lower", Moves: "reads_per_s on the stream workloads"},
	{Name: "jem.write_wall_ns_per_read", Unit: "ns", Better: "lower", Moves: "reads_per_s once the writer is the bottleneck"},
	{Name: "jem.format_ns_per_read", Unit: "ns", Better: "lower", Moves: "cpu_us_per_read, small everywhere"},
	{Name: "jem.stream_w1_reads_per_s", Unit: "1/s", Better: "higher", Moves: "reads_per_s; the base of scaling_efficiency"},
	{Name: "jem.stream_cpu_us_per_read", Unit: "us", Better: "lower", Moves: "cpu_us_per_read; the figure the layers are summed against"},
	{Name: "jem.scaling_efficiency", Unit: "ratio", Better: "higher", Moves: "reads_per_s"},
	{Name: "jem.pipeline_self_ns_per_read", Unit: "ns", Better: "lower", Moves: "cpu_us_per_read: channels, batching, GC"},
	{Name: "jem.layer_sum_over_e2e", Unit: "ratio", Better: "higher", Moves: "attribution check, expected in [0.85, 1.15] on local indexes"},

	{Name: "serve.http_self_us_per_request", Unit: "us", Better: "lower", Moves: "request_p50_ms and cpu_us_per_read on serve_http"},
	{Name: "serve.request_p99_ms", Unit: "ms", Better: "lower", Moves: "request_p95_ms on serve_http"},
	{Name: "serve.rejected_share", Unit: "ratio", Better: "lower", Moves: "answered_share on serve_http"},

	{Name: "shardnet.rpcs_per_read", Unit: "count", Better: "lower", Moves: "reads_per_s and cpu_us_per_read on fleet_p8 only"},
	{Name: "shardnet.retries_per_krpc", Unit: "count", Better: "lower", Moves: "request_p95_ms on fleet_p8"},
	{Name: "shardnet.hedges_per_krpc", Unit: "count", Better: "lower", Moves: "cpu_us_per_read on fleet_p8"},
	{Name: "shardnet.shards_lost", Unit: "count", Better: "lower", Moves: "answered_share on fleet_p8"},
	{Name: "shardnet.rpc_p50_us", Unit: "us", Better: "lower", Moves: "reads_per_s on fleet_p8: rpcs x rpc_p50 is the remote gap"},
	{Name: "shardnet.rpc_p95_us", Unit: "us", Better: "lower", Moves: "request_p95_ms on fleet_p8"},
	{Name: "shardnet.remote_over_local", Unit: "ratio", Better: "lower", Moves: "cpu_us_per_read on fleet_p8"},

	{Name: "obs.request_trace_overhead_pct", Unit: "%", Better: "lower", Moves: "cpu_us_per_read on serve_http; budget 3 %"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower", Moves: "nothing: the cost of the benchmark's own spans"},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect turns measured values into the reported map, in the order
// and with the units of defs. A metric without a value is a bug in the
// benchmark and is reported as such.
func collect(defs []metricDef, vals map[string]float64) (map[string]metricValue, []string) {
	out := make(map[string]metricValue, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, missing
}
