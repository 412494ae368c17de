package experiments

import (
	"context"
	"fmt"
	"io"

	"repro"
	"repro/internal/simulate"
	"repro/internal/stats"
)

// CoveragePoint is one long-read depth of the coverage sweep.
type CoveragePoint struct {
	Coverage float64
	// Quality of the mapping at this depth.
	Quality jem.Quality
	// Links is the number of cross-contig links with ≥2 supporting
	// reads — the scaffolding signal the paper's motivation is about.
	Links int
	// ScaffoldN50 is the N50 of scaffold spans (contig bases chained,
	// gaps excluded); ContigN50 is the baseline.
	ScaffoldN50 int
	ContigN50   int
}

// CoverageSweep re-simulates the long-read run of one dataset at
// several depths and measures mapping quality and scaffolding yield —
// quantifying the paper's motivating claim that hybrid scaffolding
// works at low long-read coverage ("decreased coverage (and cost) in
// long read sequencing", §I).
//
//jem:detached offline experiment harness: no request scope to inherit
func CoverageSweep(spec Spec, scale float64, coverages []float64, opts jem.Options) ([]CoveragePoint, error) {
	d, err := Build(spec, scale)
	if err != nil {
		return nil, err
	}
	contigN50 := n50(d.Contigs)
	mapper, err := jem.NewMapper(d.Contigs, opts)
	if err != nil {
		return nil, err
	}
	points := make([]CoveragePoint, 0, len(coverages))
	for ci, cov := range coverages {
		long, err := simulate.HiFi(d.Chromosomes, simulate.HiFiConfig{
			Coverage:  cov,
			MedianLen: spec.HiFiMedianLen,
			Seed:      spec.Seed + 1000 + int64(ci),
		})
		if err != nil {
			return nil, err
		}
		reads := simulate.Records(long)
		sweep := *d.Dataset
		sweep.Truth = long
		b, err := jem.BuildBenchmark(&sweep, opts)
		if err != nil {
			return nil, err
		}
		mappings, err := mapper.Map(context.Background(), reads, jem.MapOptions{})
		if err != nil {
			return nil, err
		}
		q := b.Evaluate(mappings)

		scaffolds := jem.BuildScaffolds(mappings, len(d.Contigs), 2)
		links := 0
		spans := make([]int, 0, len(scaffolds)+len(d.Contigs))
		inChain := map[int]bool{}
		for _, sc := range scaffolds {
			links += len(sc.Contigs) - 1
			span := 0
			for _, c := range sc.Contigs {
				span += len(d.Contigs[c].Seq)
				inChain[c] = true
			}
			spans = append(spans, span)
		}
		for i := range d.Contigs {
			if !inChain[i] {
				spans = append(spans, len(d.Contigs[i].Seq))
			}
		}
		points = append(points, CoveragePoint{
			Coverage:    cov,
			Quality:     q,
			Links:       links,
			ScaffoldN50: n50FromLens(spans),
			ContigN50:   contigN50,
		})
	}
	return points, nil
}

func n50(records []jem.Record) int {
	lens := make([]int, len(records))
	for i := range records {
		lens[i] = len(records[i].Seq)
	}
	return n50FromLens(lens)
}

func n50FromLens(lens []int) int {
	var total int64
	for _, l := range lens {
		total += int64(l)
	}
	// Insertion-free approach: sort descending.
	sorted := append([]int(nil), lens...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] > sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	var acc int64
	for _, l := range sorted {
		acc += int64(l)
		if acc*2 >= total {
			return l
		}
	}
	return 0
}

// RenderCoverage writes the sweep.
func RenderCoverage(w io.Writer, dataset string, points []CoveragePoint) {
	t := stats.NewTable("coverage", "precision", "recall", "links (support>=2)", "contig N50", "scaffold N50")
	for _, p := range points {
		t.AddRow(fmt.Sprintf("%gx", p.Coverage),
			fmt.Sprintf("%.4f", p.Quality.Precision), fmt.Sprintf("%.4f", p.Quality.Recall),
			p.Links, p.ContigN50, p.ScaffoldN50)
	}
	fmt.Fprintf(w, "Coverage sweep: scaffolding yield vs long-read depth (%s)\n", dataset)
	fmt.Fprint(w, t.String())
}

// CoverageCSV writes the raw sweep data.
func CoverageCSV(w io.Writer, dataset string, points []CoveragePoint) error {
	var recs [][]string
	for _, p := range points {
		recs = append(recs, []string{
			dataset, f(p.Coverage), f(p.Quality.Precision), f(p.Quality.Recall),
			d(p.Links), d(p.ContigN50), d(p.ScaffoldN50),
		})
	}
	return writeCSV(w, []string{
		"dataset", "coverage", "precision", "recall", "links", "contig_n50", "scaffold_n50",
	}, recs)
}
