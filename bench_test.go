// Benchmarks regenerating the paper's timing exhibits (Table II and
// Figs. 7a, 7b and 8, on scaled-down datasets), plus micro-benchmarks
// of the hot paths and ablation benches for the design choices called
// out in DESIGN.md. The quality exhibits (Table I, Figs. 5, 6 and 9)
// are pinned byte for byte by internal/experiments TestExhibitGoldens.
//
// Exhibit metrics are attached via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// prints both runtime and the reproduced statistics. Datasets are
// cached process-wide and built before each benchmark's timer starts.
package jem_test

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sketch"
)

// benchScale keeps full-suite bench runs in the minutes range.
const benchScale = 0.002

func benchOpts() jem.Options { return jem.DefaultOptions() }

// benchSpecs returns the two datasets the scaling exhibits focus on.
func benchSpecs(b *testing.B) []experiments.Spec {
	b.Helper()
	h7, ok1 := experiments.SpecByName("human7-like")
	bs, ok2 := experiments.SpecByName("bsplendens-like")
	if !ok1 || !ok2 {
		b.Fatal("specs missing")
	}
	return []experiments.Spec{h7, bs}
}

func prebuild(b *testing.B, specs []experiments.Spec) {
	b.Helper()
	for _, s := range specs {
		if _, err := experiments.Build(s, benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2Scaling regenerates Table II: simulated distributed
// runtimes across p plus the Mashmap-baseline runtime.
func BenchmarkTable2Scaling(b *testing.B) {
	specs := benchSpecs(b)[1:] // bsplendens-like
	prebuild(b, specs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(specs, benchScale, []int{4, 16, 64}, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			last := len(rows[0].JEMRuntime) - 1
			b.ReportMetric(rows[0].Speedup(last), "speedup-p64-vs-p4")
			b.ReportMetric(float64(rows[0].MashmapRuntime)/float64(rows[0].JEMRuntime[last]), "vs-mashmap")
		}
	}
}

// BenchmarkFig7Breakdown regenerates Fig. 7a: the per-step runtime
// split at p=16 (query processing should dominate).
func BenchmarkFig7Breakdown(b *testing.B) {
	specs := benchSpecs(b)[1:]
	prebuild(b, specs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig7a(specs, benchScale, 16, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var queryFrac float64
			for _, st := range rows[0].Steps {
				if st.Name == "S4 map queries" {
					queryFrac = float64(st.Duration) / float64(rows[0].Total)
				}
			}
			b.ReportMetric(queryFrac, "query-step-fraction")
		}
	}
}

// BenchmarkFig7Throughput regenerates Fig. 7b: querying throughput as
// a function of p.
func BenchmarkFig7Throughput(b *testing.B) {
	specs := benchSpecs(b)[1:]
	prebuild(b, specs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig7b(specs, benchScale, []int{4, 16, 64}, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[0].Throughput[0], "qps-p4")
			b.ReportMetric(rows[0].Throughput[len(rows[0].Throughput)-1], "qps-p64")
		}
	}
}

// BenchmarkFig8CommComp regenerates Fig. 8: the computation vs
// communication split on the two large inputs.
func BenchmarkFig8CommComp(b *testing.B) {
	specs := benchSpecs(b)
	prebuild(b, specs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig8(specs, benchScale, []int{4, 64}, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[1].CommPct[0], "comm-pct-p4")
			b.ReportMetric(rows[1].CommPct[len(rows[1].CommPct)-1], "comm-pct-p64")
		}
	}
}

// --- Micro-benchmarks of the hot paths -------------------------------------

func benchDataset(b *testing.B) *experiments.Dataset {
	b.Helper()
	spec, _ := experiments.SpecByName("bsplendens-like")
	d, err := experiments.Build(spec, benchScale)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkIndexContigs measures subject sketching + table build.
func BenchmarkIndexContigs(b *testing.B) {
	d := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := jem.NewMapper(d.Contigs, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(totalBases(d.Contigs))
}

// BenchmarkMapReads measures the dominant query-mapping step.
func BenchmarkMapReads(b *testing.B) {
	d := benchDataset(b)
	mapper, err := jem.NewMapper(d.Contigs, benchOpts())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var segments int
	for i := 0; i < b.N; i++ {
		segments = len(mapAll(mapper, d.Reads))
	}
	b.ReportMetric(float64(segments)*float64(b.N)/b.Elapsed().Seconds(), "segments/s")
}

// BenchmarkMapStream measures the pipelined streaming path end to end
// (FASTQ parse → worker pool → in-order TSV write) on the same input
// as BenchmarkMapReads, so the two throughputs are comparable.
func BenchmarkMapStream(b *testing.B) {
	d := benchDataset(b)
	mapper, err := jem.NewMapper(d.Contigs, benchOpts())
	if err != nil {
		b.Fatal(err)
	}
	var fastq bytes.Buffer
	if err := writeFASTQ(&fastq, d.Reads); err != nil {
		b.Fatal(err)
	}
	input := fastq.Bytes()
	b.SetBytes(int64(len(input)))
	b.ResetTimer()
	var segments int
	for i := 0; i < b.N; i++ {
		stats, err := streamAll(mapper, bytes.NewReader(input), io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		segments = stats.Segments
	}
	b.ReportMetric(float64(segments)*float64(b.N)/b.Elapsed().Seconds(), "segments/s")
}

// BenchmarkMashmapMapReads measures the baseline on the same input.
func BenchmarkMashmapMapReads(b *testing.B) {
	d := benchDataset(b)
	baseline := jem.NewMashmapMapper(d.Contigs, benchOpts())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baseline.MapReads(d.Reads)
	}
}

// BenchmarkSeedChainMapReads measures the Minimap2-style third
// baseline on the same input (extension; the paper compares
// JEM/Mashmap only).
func BenchmarkSeedChainMapReads(b *testing.B) {
	d := benchDataset(b)
	baseline := jem.NewSeedChainMapper(d.Contigs, benchOpts())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baseline.MapReads(d.Reads)
	}
}

// --- Ablation benches (design choices from DESIGN.md §5) --------------------

// BenchmarkAblationSegmentsVsWholeRead contrasts mapping ℓ-length end
// segments (the paper's choice) against sketching entire reads: the
// segment variant does less work per read and is what makes long-read
// queries cheap.
func BenchmarkAblationSegmentsVsWholeRead(b *testing.B) {
	d := benchDataset(b)
	opts := benchOpts()
	mapper, err := core.NewMapper(sketch.Params{K: opts.K, W: opts.W, T: opts.Trials, L: opts.SegmentLen, Seed: opts.Seed})
	if err != nil {
		b.Fatal(err)
	}
	mapper.AddSubjectsParallel(d.Contigs, opts.Workers)
	mapper.Seal()
	sess := mapper.NewSession()
	b.Run("end-segments", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, r := range d.Reads {
				segs, _ := core.EndSegments(r.Seq, opts.SegmentLen)
				for _, seg := range segs {
					sess.MapSegment(seg)
				}
			}
		}
	})
	b.Run("whole-read", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, r := range d.Reads {
				sess.MapSegment(r.Seq)
			}
		}
	})
}

// BenchmarkAblationTrials shows the linear cost of T, the knob Fig. 6
// trades against quality.
func BenchmarkAblationTrials(b *testing.B) {
	d := benchDataset(b)
	for _, T := range []int{5, 30, 100} {
		b.Run(fmt.Sprintf("T=%d", T), func(b *testing.B) {
			opts := benchOpts()
			opts.Trials = T
			mapper, err := jem.NewMapper(d.Contigs, opts)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mapAll(mapper, d.Reads)
			}
		})
	}
}

// BenchmarkAblationOrdering contrasts lexicographic (the paper's) and
// hash minimizer orderings end to end, reporting both precisions.
func BenchmarkAblationOrdering(b *testing.B) {
	spec, _ := experiments.SpecByName("bsplendens-like")
	prebuild(b, []experiments.Spec{spec})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := experiments.AblationOrdering(spec, benchScale, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(a.Lex.Precision, "lex-precision")
			b.ReportMetric(a.Hash.Precision, "hash-precision")
		}
	}
}

// BenchmarkAblationLazyCounters measures the §III-C lazy counter
// against plain map counting.
func BenchmarkAblationLazyCounters(b *testing.B) {
	spec, _ := experiments.SpecByName("bsplendens-like")
	prebuild(b, []experiments.Spec{spec})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := experiments.AblationLazyCounters(spec, benchScale, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(a.LazySeconds, "lazy-s")
			b.ReportMetric(a.MapCounterSeconds, "map-s")
		}
	}
}

// BenchmarkAblationDistributedP sweeps the simulated rank count,
// the Table II axis, on one input.
func BenchmarkAblationDistributedP(b *testing.B) {
	d := benchDataset(b)
	for _, p := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			var sim float64
			for i := 0; i < b.N; i++ {
				out, err := jem.MapDistributed(d.Contigs, d.Reads, p, benchOpts())
				if err != nil {
					b.Fatal(err)
				}
				sim = out.Total.Seconds()
			}
			b.ReportMetric(sim, "sim-seconds")
		})
	}
}

func totalBases(records []jem.Record) int64 {
	var n int64
	for i := range records {
		n += int64(len(records[i].Seq))
	}
	return n
}
