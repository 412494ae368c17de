package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/minimizer"
	"repro/internal/seq"
	"repro/internal/stats"
	"repro/internal/truth"
)

// OrderingAblation compares the paper's lexicographic minimizer
// ordering against hash ordering (the minimap2-style alternative
// discussed in the winnowing literature the paper cites).
type OrderingAblation struct {
	Dataset string
	Lex     jem.Quality
	Hash    jem.Quality
	// LexMinimizers and HashMinimizers count subject sketch-table
	// entries under each ordering (density differences show up here).
	LexEntries, HashEntries int
}

// AblationOrdering runs the JEM mapper under both orderings on one
// dataset and scores both against the same benchmark.
//
//jem:detached offline experiment harness: no request scope to inherit
func AblationOrdering(spec Spec, scale float64, opts jem.Options) (*OrderingAblation, error) {
	d, err := Build(spec, scale)
	if err != nil {
		return nil, err
	}
	b, err := truth.Build(d.Chromosomes, d.Contigs, d.Dataset.Truth, opts.SegmentLen, opts.K, truth.BuildOptions{})
	if err != nil {
		return nil, err
	}
	run := func(order minimizer.Ordering) (jem.Quality, int, error) {
		p := jemParams(opts)
		p.Order = order
		m, err := core.NewMapper(p)
		if err != nil {
			return jem.Quality{}, 0, err
		}
		m.AddSubjectsParallel(d.Contigs, opts.Workers)
		m.Seal()
		results, err := m.MapReads(context.Background(), d.Reads, opts.SegmentLen, opts.Workers)
		if err != nil {
			return jem.Quality{}, 0, err
		}
		c := b.Evaluate(results)
		return jem.Quality{
			TP: c.TP, FP: c.FP, FN: c.FN, TN: c.TN,
			Precision: c.Precision(), Recall: c.Recall(), F1: c.F1(),
		}, m.Entries(), nil
	}
	out := &OrderingAblation{Dataset: spec.Name}
	if out.Lex, out.LexEntries, err = run(minimizer.OrderLex); err != nil {
		return nil, err
	}
	if out.Hash, out.HashEntries, err = run(minimizer.OrderHash); err != nil {
		return nil, err
	}
	return out, nil
}

// RenderAblationOrdering writes the comparison.
func RenderAblationOrdering(w io.Writer, a *OrderingAblation) {
	t := stats.NewTable("ordering", "precision", "recall", "table entries")
	t.AddRow("lexicographic (paper)", fmt.Sprintf("%.4f", a.Lex.Precision), fmt.Sprintf("%.4f", a.Lex.Recall), a.LexEntries)
	t.AddRow("hash (minimap2-style)", fmt.Sprintf("%.4f", a.Hash.Precision), fmt.Sprintf("%.4f", a.Hash.Recall), a.HashEntries)
	fmt.Fprintf(w, "Ablation: minimizer ordering (%s)\n", a.Dataset)
	fmt.Fprint(w, t.String())
}

// SegmentsAblation quantifies the end-segment design (§III-B.1): a
// read is scored correct when the reported contig is in its segment's
// truth set (end-segment rows) or in the union of both ends' truth
// sets (whole-read rows).
type SegmentsAblation struct {
	Dataset string
	// SegmentAccuracy is the fraction of end segments whose best hit
	// is true.
	SegmentAccuracy float64
	// WholeReadAccuracy is the fraction of reads whose whole-read
	// sketch best hit lands in either end's truth set.
	WholeReadAccuracy float64
	// SegmentQueryBases / WholeQueryBases compare sketching work.
	SegmentQueryBases, WholeQueryBases int64
}

// AblationEndSegments maps queries both ways on one dataset.
//
//jem:detached offline experiment harness: no request scope to inherit
func AblationEndSegments(spec Spec, scale float64, opts jem.Options) (*SegmentsAblation, error) {
	d, err := Build(spec, scale)
	if err != nil {
		return nil, err
	}
	b, err := truth.Build(d.Chromosomes, d.Contigs, d.Dataset.Truth, opts.SegmentLen, opts.K, truth.BuildOptions{})
	if err != nil {
		return nil, err
	}
	p := jemParams(opts)
	m, err := core.NewMapper(p)
	if err != nil {
		return nil, err
	}
	m.AddSubjectsParallel(d.Contigs, opts.Workers)
	m.Seal()

	out := &SegmentsAblation{Dataset: spec.Name}

	// End-segment accuracy.
	results, err := m.MapReads(context.Background(), d.Reads, opts.SegmentLen, opts.Workers)
	if err != nil {
		return nil, err
	}
	var segTotal, segGood int
	for _, r := range results {
		trueSet := b.True(r.ReadIndex, r.Kind)
		if len(trueSet) == 0 {
			continue
		}
		segTotal++
		if r.Mapped() && containsID(trueSet, r.Subject) {
			segGood++
		}
	}
	if segTotal > 0 {
		out.SegmentAccuracy = float64(segGood) / float64(segTotal)
	}
	for i := range d.Reads {
		n := len(d.Reads[i].Seq)
		out.WholeQueryBases += int64(n)
		if n > 2*opts.SegmentLen {
			n = 2 * opts.SegmentLen
		}
		out.SegmentQueryBases += int64(n)
	}

	// Whole-read accuracy: sketch the entire read as one query.
	sess := m.NewSession()
	var wTotal, wGood int
	for i := range d.Reads {
		truthUnion := append(append([]int32(nil),
			b.True(int32(i), core.Prefix)...),
			b.True(int32(i), core.Suffix)...)
		if len(truthUnion) == 0 {
			continue
		}
		wTotal++
		if hit, ok := sess.MapSegment(d.Reads[i].Seq); ok && containsID(truthUnion, hit.Subject) {
			wGood++
		}
	}
	if wTotal > 0 {
		out.WholeReadAccuracy = float64(wGood) / float64(wTotal)
	}
	return out, nil
}

func containsID(list []int32, v int32) bool {
	for _, x := range list {
		if x == v {
			return true
		}
	}
	return false
}

// RenderAblationSegments writes the comparison.
func RenderAblationSegments(w io.Writer, a *SegmentsAblation) {
	t := stats.NewTable("query form", "accuracy", "query bases sketched")
	t.AddRow("end segments (paper)", fmt.Sprintf("%.4f", a.SegmentAccuracy), a.SegmentQueryBases)
	t.AddRow("whole read", fmt.Sprintf("%.4f", a.WholeReadAccuracy), a.WholeQueryBases)
	fmt.Fprintf(w, "Ablation: end segments vs whole-read queries (%s)\n", a.Dataset)
	fmt.Fprint(w, t.String())
}

// LazyCounterAblation measures the §III-C lazy-update counter against
// a plain map-based counter, in query-mapping wall time.
type LazyCounterAblation struct {
	Dataset           string
	LazySeconds       float64
	MapCounterSeconds float64
}

// AblationLazyCounters maps all queries with both counting schemes.
//
//jem:detached offline experiment harness: no request scope to inherit
func AblationLazyCounters(spec Spec, scale float64, opts jem.Options) (*LazyCounterAblation, error) {
	d, err := Build(spec, scale)
	if err != nil {
		return nil, err
	}
	p := jemParams(opts)
	m, err := core.NewMapper(p)
	if err != nil {
		return nil, err
	}
	m.AddSubjectsParallel(d.Contigs, opts.Workers)
	m.Seal()
	out := &LazyCounterAblation{Dataset: spec.Name}

	start := time.Now()
	if _, err := m.MapReads(context.Background(), d.Reads, opts.SegmentLen, 1); err != nil {
		return nil, err
	}
	out.LazySeconds = time.Since(start).Seconds()
	out.MapCounterSeconds = mapCounterBaseline(m, d.Reads, opts.SegmentLen)
	return out, nil
}

// WindowPoint is one w value of the window-size ablation.
type WindowPoint struct {
	W       int
	Quality jem.Quality
	// TableEntries measures the sketch table size (space / gather
	// payload driver); QuerySeconds the single-threaded mapping time.
	TableEntries int
	QuerySeconds float64
}

// AblationWindow sweeps the minimizer window size w, the knob trading
// sketch density (space, gather payload) against sensitivity.
//
//jem:detached offline experiment harness: no request scope to inherit
func AblationWindow(spec Spec, scale float64, ws []int, opts jem.Options) ([]WindowPoint, error) {
	d, err := Build(spec, scale)
	if err != nil {
		return nil, err
	}
	b, err := truth.Build(d.Chromosomes, d.Contigs, d.Dataset.Truth, opts.SegmentLen, opts.K, truth.BuildOptions{})
	if err != nil {
		return nil, err
	}
	points := make([]WindowPoint, 0, len(ws))
	for _, w := range ws {
		p := jemParams(opts)
		p.W = w
		m, err := core.NewMapper(p)
		if err != nil {
			return nil, err
		}
		m.AddSubjectsParallel(d.Contigs, opts.Workers)
		m.Seal()
		start := time.Now()
		results, err := m.MapReads(context.Background(), d.Reads, opts.SegmentLen, 1)
		dur := time.Since(start)
		if err != nil {
			return nil, err
		}
		c := b.Evaluate(results)
		points = append(points, WindowPoint{
			W: w,
			Quality: jem.Quality{
				TP: c.TP, FP: c.FP, FN: c.FN, TN: c.TN,
				Precision: c.Precision(), Recall: c.Recall(), F1: c.F1(),
			},
			TableEntries: m.Entries(),
			QuerySeconds: dur.Seconds(),
		})
	}
	return points, nil
}

// RenderAblationWindow writes the sweep.
func RenderAblationWindow(w io.Writer, dataset string, points []WindowPoint) {
	t := stats.NewTable("w", "precision", "recall", "table entries", "query time (s)")
	for _, p := range points {
		t.AddRow(p.W, fmt.Sprintf("%.4f", p.Quality.Precision), fmt.Sprintf("%.4f", p.Quality.Recall),
			p.TableEntries, fmt.Sprintf("%.3f", p.QuerySeconds))
	}
	fmt.Fprintf(w, "Ablation: minimizer window size (%s)\n", dataset)
	fmt.Fprint(w, t.String())
}

// BubbleAblation contrasts the full hybrid pipeline on a diploid
// genome with and without SNP-bubble popping in the assembler: the
// popped assembly has far fewer, longer contigs, which changes both
// subject statistics and mapping outcomes.
type BubbleAblation struct {
	Heterozygosity float64
	// Popped / Unpopped each describe one pipeline variant.
	Popped, Unpopped BubbleVariant
}

// BubbleVariant is one arm of the bubble ablation.
type BubbleVariant struct {
	Contigs       int
	ContigN50     int
	BubblesPopped int
	Quality       jem.Quality
}

// AblationBubbles synthesizes a diploid dataset twice (identical
// seeds, popping toggled) and maps + evaluates both.
//
//jem:detached offline experiment harness: no request scope to inherit
func AblationBubbles(genomeLen int, het float64, opts jem.Options) (*BubbleAblation, error) {
	run := func(disable bool) (BubbleVariant, error) {
		ds, err := jem.Synthesize(jem.SynthesisConfig{
			Name:                 "bubbles",
			GenomeLength:         genomeLen,
			Heterozygosity:       het,
			HiFiCoverage:         10,
			Seed:                 909,
			DisableBubblePopping: disable,
		})
		if err != nil {
			return BubbleVariant{}, err
		}
		mapper, err := jem.NewMapper(ds.Contigs, opts)
		if err != nil {
			return BubbleVariant{}, err
		}
		bench, err := jem.BuildBenchmark(ds, opts)
		if err != nil {
			return BubbleVariant{}, err
		}
		mappings, err := mapper.Map(context.Background(), ds.Reads, jem.MapOptions{})
		if err != nil {
			return BubbleVariant{}, err
		}
		return BubbleVariant{
			Contigs:       len(ds.Contigs),
			ContigN50:     ds.AssemblyStats.N50,
			BubblesPopped: ds.AssemblyStats.BubblesPopped,
			Quality:       bench.Evaluate(mappings),
		}, nil
	}
	out := &BubbleAblation{Heterozygosity: het}
	var err error
	if out.Popped, err = run(false); err != nil {
		return nil, err
	}
	if out.Unpopped, err = run(true); err != nil {
		return nil, err
	}
	return out, nil
}

// RenderAblationBubbles writes the comparison.
func RenderAblationBubbles(w io.Writer, a *BubbleAblation) {
	t := stats.NewTable("assembler", "contigs", "contig N50", "bubbles popped", "precision", "recall")
	t.AddRow("bubble popping on", a.Popped.Contigs, a.Popped.ContigN50, a.Popped.BubblesPopped,
		fmt.Sprintf("%.4f", a.Popped.Quality.Precision), fmt.Sprintf("%.4f", a.Popped.Quality.Recall))
	t.AddRow("bubble popping off", a.Unpopped.Contigs, a.Unpopped.ContigN50, a.Unpopped.BubblesPopped,
		fmt.Sprintf("%.4f", a.Unpopped.Quality.Precision), fmt.Sprintf("%.4f", a.Unpopped.Quality.Recall))
	fmt.Fprintf(w, "Ablation: SNP bubble popping on a diploid genome (het=%.3f)\n", a.Heterozygosity)
	fmt.Fprint(w, t.String())
}

// mapCounterBaseline maps every end segment using a plain
// map[subject]count per query instead of the lazy counter array,
// returning the elapsed seconds. The mapping decisions are identical;
// only the bookkeeping differs.
func mapCounterBaseline(m *core.Mapper, reads []seq.Record, l int) float64 {
	start := time.Now()
	sk := m.Sketcher()
	tb := m.Sharded()
	for i := range reads {
		segs, _ := core.EndSegments(reads[i].Seq, l)
		for _, seg := range segs {
			words := sk.QuerySketch(seg)
			if words == nil {
				continue
			}
			counts := make(map[int32]int32)
			for t, w := range words {
				for _, p := range tb.Lookup(t, w) {
					counts[p.Subject]++
				}
			}
			best := core.Hit{Subject: -1}
			for subj, c := range counts {
				if c > best.Count || (c == best.Count && subj < best.Subject) {
					best = core.Hit{Subject: subj, Count: c}
				}
			}
			_ = best
		}
	}
	return time.Since(start).Seconds()
}

// RenderAblationLazy writes the comparison.
func RenderAblationLazy(w io.Writer, a *LazyCounterAblation) {
	t := stats.NewTable("counting scheme", "query time (s)")
	t.AddRow("lazy counters (paper)", fmt.Sprintf("%.3f", a.LazySeconds))
	t.AddRow("map counters", fmt.Sprintf("%.3f", a.MapCounterSeconds))
	fmt.Fprintf(w, "Ablation: lazy-update counters vs map counting (%s)\n", a.Dataset)
	fmt.Fprint(w, t.String())
}
