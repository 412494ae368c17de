package main

import (
	"bytes"
	"fmt"
	"sort"

	jem "repro"
	"repro/internal/core"
	"repro/internal/truth"
)

// Quality floors of the correctness gate: a warm-up pass scoring below
// either one fails the run. They sit well under what the default
// options reach on both datasets (see README.md) and exist to catch a
// speed-up bought with sketch quality, not to rank mappers.
const (
	recallFloor    = 0.85
	precisionFloor = 0.85
)

// trueContigs returns the contigs whose cut interval shares at least k
// reference positions with iv — the paper's truth rule (§IV-B), exact
// here because contigs are cut, not assembled. Contigs are in
// reference order within a chromosome, so the candidates are
// contiguous.
func (ds *dataset) trueContigs(iv truth.Interval, k int) []int {
	at := ds.ContigAt
	lo := sort.Search(len(at), func(i int) bool {
		return at[i].Chrom > iv.Chrom || (at[i].Chrom == iv.Chrom && at[i].End > iv.Start)
	})
	var out []int
	for i := lo; i < len(at) && at[i].Chrom == iv.Chrom && at[i].Start < iv.End; i++ {
		if at[i].Overlap(iv) >= k {
			out = append(out, i)
		}
	}
	return out
}

// score parses a TSV mapping table over the dataset's reads and tallies
// it against the cut coordinates, one outcome per end segment exactly
// as truth.Benchmark.Evaluate does.
func (ds *dataset) score(tsv []byte, opts jem.Options) (truth.Confusion, error) {
	var c truth.Confusion
	mappings, err := jem.ReadTSV(bytes.NewReader(tsv), ds.Recs, ds.Contigs)
	if err != nil {
		return c, fmt.Errorf("scoring: %w", err)
	}
	for _, m := range mappings {
		kind := core.Prefix
		if m.End == jem.SuffixEnd {
			kind = core.Suffix
		}
		want := ds.trueContigs(truth.SegmentInterval(ds.Truth[m.ReadIndex], kind, opts.SegmentLen), opts.K)
		hit := false
		for _, w := range want {
			hit = hit || (m.Mapped && w == m.Contig)
		}
		switch {
		case hit:
			c.TP++
		case m.Mapped:
			c.FP++
			if len(want) > 0 {
				c.FN++
			}
		case len(want) > 0:
			c.FN++
		default:
			c.TN++
		}
	}
	return c, nil
}
