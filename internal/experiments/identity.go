package experiments

import (
	"context"
	"fmt"
	"io"

	"repro"
	"repro/internal/align"
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// IdentityResult is Fig. 9: the percent-identity distribution of the
// mappings JEM-mapper produced on the real-data stand-in.
type IdentityResult struct {
	Dataset     string
	Mapped      int
	Histogram   *stats.Histogram // 1 %-wide bins over [80,100]
	Mean        float64
	Frac95to100 float64
}

// Fig9 maps the real-data stand-in and aligns every mapped segment to
// its reported contig (the paper used BLAST here), collecting the
// identity distribution.
//
//jem:detached offline experiment harness: no request scope to inherit
func Fig9(spec Spec, scale float64, opts jem.Options) (*IdentityResult, error) {
	d, err := Build(spec, scale)
	if err != nil {
		return nil, err
	}
	mapper, err := jem.NewMapper(d.Contigs, opts)
	if err != nil {
		return nil, err
	}
	mappings, err := mapper.Map(context.Background(), d.Reads, jem.MapOptions{})
	if err != nil {
		return nil, err
	}

	type pair struct {
		segment []byte
		contig  int
	}
	var pairs []pair
	for _, m := range mappings {
		if !m.Mapped {
			continue
		}
		segs, kinds := core.EndSegments(d.Reads[m.ReadIndex].Seq, opts.SegmentLen)
		for i, kind := range kinds {
			if (kind == core.Prefix) == (m.End == jem.PrefixEnd) {
				pairs = append(pairs, pair{segment: segs[i], contig: m.Contig})
			}
		}
	}
	identities := make([]float64, len(pairs))
	parallel.ForEach(len(pairs), opts.Workers, func(i int) {
		r := align.BestStrandIdentity(pairs[i].segment, d.Contigs[pairs[i].contig].Seq, align.DefaultScoring())
		identities[i] = r.PercentIdentity()
	})

	res := &IdentityResult{
		Dataset:   spec.Name,
		Mapped:    len(pairs),
		Histogram: stats.NewHistogram(80, 100, 20),
	}
	var sum float64
	hi := 0
	for _, id := range identities {
		res.Histogram.Add(id)
		sum += id
		if id >= 95 {
			hi++
		}
	}
	if len(identities) > 0 {
		res.Mean = sum / float64(len(identities))
		res.Frac95to100 = float64(hi) / float64(len(identities))
	}
	return res, nil
}

// RenderFig9 writes the identity histogram.
func RenderFig9(w io.Writer, r *IdentityResult) {
	fmt.Fprintf(w, "Fig. 9: percent identity distribution (%s, %d mapped segments)\n", r.Dataset, r.Mapped)
	fmt.Fprintf(w, "mean identity %.2f%%; fraction in [95,100]: %.1f%%\n", r.Mean, 100*r.Frac95to100)
	fmt.Fprint(w, r.Histogram.Render(40))
}
