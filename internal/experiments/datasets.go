// Package experiments wires the whole system into the paper's
// evaluation: dataset synthesis standing in for the eight inputs of
// Table I, and one runner per table/figure of §IV. Each runner
// returns structured results plus a text rendering that mirrors the
// paper's presentation.
package experiments

import (
	"fmt"
	"sync"

	"repro"
)

// Spec describes one paper input, parameterized by a genome-length
// scale factor so the suite runs anywhere from laptop tests (scale
// 0.002) to hours-long full runs.
type Spec struct {
	// Name tags the dataset after the organism it stands in for.
	Name string
	// PaperGenomeLen is the original genome length in bp.
	PaperGenomeLen int
	// RepeatFraction and RepeatDivergence control complexity.
	RepeatFraction   float64
	RepeatDivergence float64
	// HiFiCoverage and HiFiMedianLen configure the long-read run.
	HiFiCoverage  float64
	HiFiMedianLen int
	// Real marks the O. sativa-style real-data stand-in.
	Real bool
	// Seed fixes the dataset.
	Seed int64
}

// PaperSpecs returns the eight inputs of Table I. The first six are
// the simulated-read genomes of Figs. 5–8; the last is the real-data
// stand-in of Fig. 9 (longer reads). Repeat fractions rise with the
// organisms' actual repeat content, which is what drives the paper's
// precision separation on complex genomes.
func PaperSpecs() []Spec {
	return []Spec{
		{Name: "ecoli-like", PaperGenomeLen: 4_641_652, RepeatFraction: 0.02, RepeatDivergence: 0.02, HiFiCoverage: 10, HiFiMedianLen: 10000, Seed: 101},
		{Name: "paeruginosa-like", PaperGenomeLen: 6_264_404, RepeatFraction: 0.03, RepeatDivergence: 0.02, HiFiCoverage: 10, HiFiMedianLen: 10000, Seed: 102},
		{Name: "celegans-like", PaperGenomeLen: 100_286_401, RepeatFraction: 0.15, RepeatDivergence: 0.05, HiFiCoverage: 10, HiFiMedianLen: 10000, Seed: 103},
		{Name: "dbusckii-like", PaperGenomeLen: 118_492_362, RepeatFraction: 0.20, RepeatDivergence: 0.05, HiFiCoverage: 10, HiFiMedianLen: 10000, Seed: 104},
		{Name: "human7-like", PaperGenomeLen: 159_345_973, RepeatFraction: 0.35, RepeatDivergence: 0.08, HiFiCoverage: 10, HiFiMedianLen: 9600, Seed: 105},
		{Name: "human8-like", PaperGenomeLen: 145_138_636, RepeatFraction: 0.35, RepeatDivergence: 0.08, HiFiCoverage: 10, HiFiMedianLen: 10000, Seed: 106},
		{Name: "bsplendens-like", PaperGenomeLen: 339_050_970, RepeatFraction: 0.25, RepeatDivergence: 0.06, HiFiCoverage: 10, HiFiMedianLen: 10000, Seed: 107},
		{Name: "osativa-like", PaperGenomeLen: 28_443_022, RepeatFraction: 0.30, RepeatDivergence: 0.06, HiFiCoverage: 12, HiFiMedianLen: 19642, Real: true, Seed: 108},
	}
}

// SimSpecs returns the six simulated-read genomes (Fig. 5's x-axis).
func SimSpecs() []Spec {
	all := PaperSpecs()
	return all[:6]
}

// SpecByName finds a spec; ok=false when unknown.
func SpecByName(name string) (Spec, bool) {
	for _, s := range PaperSpecs() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// GenomeLen returns the scaled genome length, floored at 50 kbp so
// tiny scales still assemble.
func (s Spec) GenomeLen(scale float64) int {
	n := int(float64(s.PaperGenomeLen) * scale)
	if n < 50_000 {
		n = 50_000
	}
	return n
}

// Dataset bundles a built input with its ground truth and benchmark.
type Dataset struct {
	Spec  Spec
	Scale float64
	*jem.Dataset
}

var (
	cacheMu sync.Mutex
	cache   = map[string]*Dataset{}
)

// Build synthesizes (or returns the cached) dataset for a spec at the
// given scale. Builds are cached per (name, scale) for the lifetime of
// the process, so a suite touching the same inputs repeatedly pays
// assembly cost once.
func Build(spec Spec, scale float64) (*Dataset, error) {
	key := fmt.Sprintf("%s@%g", spec.Name, scale)
	cacheMu.Lock()
	if d, ok := cache[key]; ok {
		cacheMu.Unlock()
		return d, nil
	}
	cacheMu.Unlock()

	ds, err := jem.Synthesize(jem.SynthesisConfig{
		Name:             spec.Name,
		GenomeLength:     spec.GenomeLen(scale),
		RepeatFraction:   spec.RepeatFraction,
		RepeatDivergence: spec.RepeatDivergence,
		HiFiCoverage:     spec.HiFiCoverage,
		HiFiMedianLen:    spec.HiFiMedianLen,
		Seed:             spec.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: build %s: %w", spec.Name, err)
	}
	d := &Dataset{Spec: spec, Scale: scale, Dataset: ds}
	cacheMu.Lock()
	cache[key] = d
	cacheMu.Unlock()
	return d, nil
}
