package jem

import (
	"io"
	"strings"
	"time"

	"repro/internal/align"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/mashmap"
	"repro/internal/minhash"
	"repro/internal/mpi"
	"repro/internal/scaffold"
	"repro/internal/seedchain"
	"repro/internal/simulate"
	"repro/internal/truth"
)

// --- Distributed execution -------------------------------------------------

// DistributedOutput reports a simulated distributed-memory run.
type DistributedOutput struct {
	// Mappings is identical to what the shared-memory path produces.
	Mappings []Mapping
	// Total is the simulated end-to-end runtime.
	Total time.Duration
	// Steps lists per-step simulated durations in execution order.
	Steps []StepTime
	// CommFraction is the modeled communication share of Total (0..1).
	CommFraction float64
	// Throughput is query segments per simulated second of the
	// query-mapping step.
	Throughput float64
	// PhaseTrace is the rendered per-rank span tree: one root per
	// rank with sketch/gather/map children timing real wall clock on
	// that rank's goroutine (the simulated clock lives in Steps).
	PhaseTrace string
}

// StepTime is a named phase duration.
type StepTime struct {
	Name          string
	Duration      time.Duration
	Communication bool
}

// MapDistributed runs the mapper's S1–S4 distributed algorithm on p
// simulated ranks. Results are identical to NewMapper + MapReads with
// the same options.
func MapDistributed(contigs, reads []Record, p int, opts Options) (*DistributedOutput, error) {
	cfg := dist.Config{
		P:           p,
		Params:      opts.params(),
		MaxParallel: opts.Workers,
	}
	// When the caller serves a registry (jem-mapper -metrics-addr),
	// the per-rank spans land in its tracer and show up on /statusz
	// live while the ranks run.
	if opts.Metrics != nil {
		cfg.Tracer = opts.Metrics.Tracer()
	}
	out, err := dist.Run(contigs, reads, cfg)
	if err != nil {
		return nil, err
	}
	var trace strings.Builder
	if err := out.Trace.Render(&trace); err != nil {
		return nil, err
	}
	d := &DistributedOutput{
		Mappings:     toMappings(out.Results, reads, contigs),
		Total:        out.Timeline.Total(),
		CommFraction: out.Timeline.CommFraction(),
		Throughput:   out.Throughput(),
		PhaseTrace:   trace.String(),
	}
	for _, st := range out.Timeline.Steps {
		d.Steps = append(d.Steps, StepTime{
			Name:          st.Name,
			Duration:      st.Sim,
			Communication: st.Kind == mpi.Communication,
		})
	}
	return d, nil
}

// --- Baselines ---------------------------------------------------------------

// BaselineMapper is the common surface of the comparison mappers.
type BaselineMapper interface {
	// MapReads maps both end segments of every read.
	MapReads(reads []Record) []Mapping
}

// baselineAdapter serves any comparison mapper whose MapReads yields
// core.Results over the contig slice it was built from.
type baselineAdapter struct {
	mapReads func(reads []Record, l, workers int) []core.Result
	contigs  []Record
	opts     Options
}

func (a *baselineAdapter) MapReads(reads []Record) []Mapping {
	return toMappings(a.mapReads(reads, a.opts.SegmentLen, a.opts.Workers), reads, a.contigs)
}

// NewMashmapMapper builds the Mashmap-style baseline over the same
// contig set and parameter defaults as the JEM mapper.
func NewMashmapMapper(contigs []Record, opts Options) BaselineMapper {
	p := mashmap.Params{K: opts.K, W: opts.W, SegLen: opts.SegmentLen}
	return &baselineAdapter{mapReads: mashmap.NewMapper(contigs, p, opts.Workers).MapReads, contigs: contigs, opts: opts}
}

// NewMinHashMapper builds the classical-MinHash baseline (whole-
// sequence sketches, no interval constraint) used in the paper's
// Fig. 6 ablation.
func NewMinHashMapper(contigs []Record, opts Options) (BaselineMapper, error) {
	m, err := minhash.NewMapper(contigs, opts.params(), opts.Workers)
	if err != nil {
		return nil, err
	}
	return &baselineAdapter{mapReads: m.MapReads, contigs: contigs, opts: opts}, nil
}

// NewSeedChainMapper builds the seed-and-chain baseline (the
// Minimap2-style approach) adapted to the best-hit protocol, so all
// three strategies the paper discusses are measurable on one
// benchmark.
func NewSeedChainMapper(contigs []Record, opts Options) BaselineMapper {
	p := seedchain.Defaults()
	p.K = opts.K
	return &baselineAdapter{mapReads: seedchain.NewMapper(contigs, p, opts.Workers).MapReads, contigs: contigs, opts: opts}
}

// --- Benchmarking / evaluation ------------------------------------------------

// Benchmark is the §IV-B ground-truth pair set.
type Benchmark struct {
	b *truth.Benchmark
	l int
}

// Quality is the precision/recall outcome of an evaluation.
type Quality struct {
	TP, FP, FN, TN int
	Precision      float64
	Recall         float64
	F1             float64
}

// BuildBenchmark locates contigs on the reference and enumerates the
// true ⟨segment, contig⟩ pairs under the ≥k-intersection rule.
func BuildBenchmark(ds *Dataset, opts Options) (*Benchmark, error) {
	b, err := truth.Build(ds.Chromosomes, ds.Contigs, ds.Truth, opts.SegmentLen, opts.K, truth.BuildOptions{})
	if err != nil {
		return nil, err
	}
	return &Benchmark{b: b, l: opts.SegmentLen}, nil
}

// toResults is the one Mapping → core.Result conversion, the inverse
// of toMapping.
func toResults(mappings []Mapping) []core.Result {
	results := make([]core.Result, len(mappings))
	for i, m := range mappings {
		r := core.Result{ReadIndex: int32(m.ReadIndex), Subject: -1}
		if m.End == SuffixEnd {
			r.Kind = core.Suffix
		}
		if m.Mapped {
			r.Subject, r.Count = int32(m.Contig), int32(m.SharedTrials)
		}
		results[i] = r
	}
	return results
}

// Evaluate scores mappings against the benchmark.
func (bm *Benchmark) Evaluate(mappings []Mapping) Quality {
	c := bm.b.Evaluate(toResults(mappings))
	return Quality{
		TP: c.TP, FP: c.FP, FN: c.FN, TN: c.TN,
		Precision: c.Precision(), Recall: c.Recall(), F1: c.F1(),
	}
}

// TruePairs returns the number of ground-truth pairs in the benchmark.
func (bm *Benchmark) TruePairs() int { return bm.b.Pairs() }

// --- Identity (Fig. 9) ---------------------------------------------------------

// PercentIdentity aligns a mapped segment against its contig (both
// orientations) and returns the alignment percent identity, the
// statistic of the paper's Fig. 9 real-data analysis.
func PercentIdentity(segment, contig []byte) float64 {
	return align.BestStrandIdentity(segment, contig, align.DefaultScoring()).PercentIdentity()
}

// --- Scaffolding -----------------------------------------------------------------

// Scaffold is an ordered chain of contig indices linked by long reads.
type Scaffold struct {
	Contigs []int
}

// BuildScaffolds chains contigs using reads whose two ends map to
// different contigs, requiring at least minSupport witnessing reads
// per link. numContigs is the size of the contig set the mappings
// refer to.
func BuildScaffolds(mappings []Mapping, numContigs, minSupport int) []Scaffold {
	links := scaffold.BuildLinks(toResults(mappings))
	sc := scaffold.Build(links, numContigs, minSupport)
	out := make([]Scaffold, 0, len(sc.Chains))
	for _, chain := range sc.Chains {
		ints := make([]int, len(chain))
		for i, c := range chain {
			ints[i] = int(c)
		}
		out = append(out, Scaffold{Contigs: ints})
	}
	return out
}

// OrientedScaffold is a chain of contigs with per-contig orientation
// and estimated inter-contig gaps, built from positional mappings.
type OrientedScaffold struct {
	// Contigs lists the chain in order.
	Contigs []int
	// Reversed[i] is true when Contigs[i] enters reverse-complemented.
	Reversed []bool
	// Gaps[i] is the estimated gap (possibly negative = overlap)
	// between Contigs[i-1] and Contigs[i]; Gaps[0] is always 0.
	Gaps []int
}

// BuildScaffoldsOrientedFull chains contigs with orientation and gap
// estimates from positional mappings — the richer counterpart of
// BuildScaffolds enabled by the positional sketch table — and also
// returns the singleton contigs that joined no chain (needed for
// complete AGP output). reads and contigs must be the slices the
// mappings refer to.
func BuildScaffoldsOrientedFull(mappings []PositionalMapping, reads, contigs []Record, minSupport int) ([]OrientedScaffold, []int) {
	segLen := 0
	var segObs []scaffold.SegmentObservation
	for _, pm := range mappings {
		if !pm.Mapped || pm.TargetStart < 0 {
			continue
		}
		if n := pm.QueryEnd - pm.QueryStart; n > segLen {
			segLen = n
		}
		segObs = append(segObs, scaffold.SegmentObservation{
			ReadIndex:    int32(pm.ReadIndex),
			Prefix:       pm.End == PrefixEnd,
			Contig:       int32(pm.Contig),
			Reverse:      pm.Strand == '-',
			TargetStart:  pm.TargetStart,
			TargetEnd:    pm.TargetEnd,
			ContigLength: len(contigs[pm.Contig].Seq),
			ReadLength:   len(reads[pm.ReadIndex].Seq),
			SegmentLen:   pm.QueryEnd - pm.QueryStart,
		})
	}
	links := scaffold.AggregateEvidence(scaffold.DeriveEvidence(segObs))
	sc := scaffold.BuildOriented(links, len(contigs), minSupport)
	out := make([]OrientedScaffold, 0, len(sc.Chains))
	for _, chain := range sc.Chains {
		os := OrientedScaffold{
			Contigs:  make([]int, len(chain)),
			Reversed: make([]bool, len(chain)),
			Gaps:     make([]int, len(chain)),
		}
		for i, p := range chain {
			os.Contigs[i] = int(p.Contig)
			os.Reversed[i] = p.Reversed
			os.Gaps[i] = p.GapBefore
		}
		out = append(out, os)
	}
	singles := make([]int, len(sc.Singletons))
	for i, c := range sc.Singletons {
		singles[i] = int(c)
	}
	return out, singles
}

// WriteAGP renders oriented scaffolds (plus singleton contigs) in AGP
// v2.1. Negative or tiny gap estimates are clamped to minGap, as AGP
// gaps must be positive.
func WriteAGP(w io.Writer, scaffolds []OrientedScaffold, singletons []int, contigs []Record, minGap int) error {
	sc := &scaffold.OrientedScaffolds{}
	for _, s := range scaffolds {
		chain := make([]scaffold.Placement, len(s.Contigs))
		for i := range s.Contigs {
			chain[i] = scaffold.Placement{
				Contig:    int32(s.Contigs[i]),
				Reversed:  s.Reversed[i],
				GapBefore: s.Gaps[i],
			}
		}
		sc.Chains = append(sc.Chains, chain)
	}
	for _, c := range singletons {
		sc.Singletons = append(sc.Singletons, int32(c))
	}
	return scaffold.WriteAGP(w, sc,
		func(c int32) string { return contigs[c].ID },
		func(c int32) int { return len(contigs[c].Seq) },
		minGap)
}

// GroundTruthReads re-derives simulate.Read ground truth from read
// record descriptions (for datasets loaded from disk rather than
// synthesized in-process).
func GroundTruthReads(reads []Record) ([]simulate.Read, error) {
	out := make([]simulate.Read, len(reads))
	for i, r := range reads {
		chrom, start, end, strand, err := simulate.ParseCoords(r.Desc)
		if err != nil {
			return nil, err
		}
		out[i] = simulate.Read{Rec: r, Chrom: chrom, Start: start, End: end, Strand: strand}
	}
	return out, nil
}
