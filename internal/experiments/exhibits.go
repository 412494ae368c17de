package experiments

import (
	"fmt"
	"io"

	"repro"
)

// CSVSink receives an exhibit's raw data: the file name (fig5.csv, …)
// and a function that writes the CSV to the writer it is given.
type CSVSink func(name string, write func(io.Writer) error) error

// Exhibit is one table or figure of §IV, named as jem-bench names it.
// Run computes it at the given scale, renders it to w and hands its raw
// data, when it has any, to csv.
type Exhibit struct {
	Name string
	Run  func(w io.Writer, scale float64, opts jem.Options, csv CSVSink) error
}

// processCounts is the p sweep of Table II and Figs. 7b and 8.
var processCounts = []int{4, 8, 16, 32, 64}

// exhibit wires a runner to its rendering and CSV writer.
func exhibit[R any](name string, compute func(scale float64, opts jem.Options) (R, error),
	render func(io.Writer, R), writeCSV func(io.Writer, R) error) Exhibit {
	return Exhibit{Name: name, Run: func(w io.Writer, scale float64, opts jem.Options, csv CSVSink) error {
		r, err := compute(scale, opts)
		if err != nil {
			return err
		}
		render(w, r)
		return csv(name+".csv", func(f io.Writer) error { return writeCSV(f, r) })
	}}
}

// scalingSpecs are the inputs of Table II and Fig. 7.
func scalingSpecs() []Spec {
	return append(SimSpecs()[2:6:6], mustSpec("bsplendens-like"), mustSpec("osativa-like"))
}

// Exhibits returns every exhibit in the order jem-bench's "all" runs
// them.
func Exhibits() []Exhibit {
	bs := mustSpec("bsplendens-like") // Fig. 6's and the coverage sweep's input
	return []Exhibit{
		exhibit("table1", func(scale float64, _ jem.Options) ([]Table1Row, error) {
			return Table1(PaperSpecs(), scale)
		}, RenderTable1, Table1CSV),
		exhibit("fig5", func(scale float64, opts jem.Options) ([]QualityRow, error) {
			return Fig5(SimSpecs(), scale, opts)
		}, RenderFig5, Fig5CSV),
		exhibit("fig6", func(scale float64, opts jem.Options) ([]TrialsPoint, error) {
			return Fig6(bs, scale, []int{5, 10, 20, 30, 50, 100, 150}, opts)
		}, func(w io.Writer, pts []TrialsPoint) { RenderFig6(w, bs.Name, pts) },
			func(w io.Writer, pts []TrialsPoint) error { return Fig6CSV(w, bs.Name, pts) }),
		exhibit("table2", func(scale float64, opts jem.Options) ([]ScalingRow, error) {
			return Table2(scalingSpecs(), scale, processCounts, opts)
		}, RenderTable2, Table2CSV),
		exhibit("fig7a", func(scale float64, opts jem.Options) ([]BreakdownRow, error) {
			return Fig7a(scalingSpecs(), scale, 16, opts)
		}, RenderFig7a, Fig7aCSV),
		exhibit("fig7b", func(scale float64, opts jem.Options) ([]ThroughputRow, error) {
			return Fig7b(scalingSpecs(), scale, processCounts, opts)
		}, RenderFig7b, Fig7bCSV),
		exhibit("fig8", func(scale float64, opts jem.Options) ([]CommRow, error) {
			return Fig8([]Spec{mustSpec("human7-like"), mustSpec("bsplendens-like")}, scale, processCounts, opts)
		}, RenderFig8, Fig8CSV),
		exhibit("fig9", func(scale float64, opts jem.Options) (*IdentityResult, error) {
			return Fig9(mustSpec("osativa-like"), scale, opts)
		}, RenderFig9, Fig9CSV),
		{Name: "ablations", Run: runAblations},
		exhibit("coverage", func(scale float64, opts jem.Options) ([]CoveragePoint, error) {
			return CoverageSweep(bs, scale, []float64{2.5, 5, 10, 20}, opts)
		}, func(w io.Writer, pts []CoveragePoint) { RenderCoverage(w, bs.Name, pts) },
			func(w io.Writer, pts []CoveragePoint) error { return CoverageCSV(w, bs.Name, pts) }),
	}
}

// ExhibitByName finds an exhibit; ok=false when unknown.
func ExhibitByName(name string) (Exhibit, bool) {
	for _, e := range Exhibits() {
		if e.Name == name {
			return e, true
		}
	}
	return Exhibit{}, false
}

// runAblations renders the design-choice ablations on the
// bsplendens-like input; they have no CSV.
func runAblations(w io.Writer, scale float64, opts jem.Options, _ CSVSink) error {
	spec := mustSpec("bsplendens-like")
	ord, err := AblationOrdering(spec, scale, opts)
	if err != nil {
		return err
	}
	RenderAblationOrdering(w, ord)
	fmt.Fprintln(w)
	segs, err := AblationEndSegments(spec, scale, opts)
	if err != nil {
		return err
	}
	RenderAblationSegments(w, segs)
	fmt.Fprintln(w)
	lazy, err := AblationLazyCounters(spec, scale, opts)
	if err != nil {
		return err
	}
	RenderAblationLazy(w, lazy)
	fmt.Fprintln(w)
	win, err := AblationWindow(spec, scale, []int{20, 50, 100, 200}, opts)
	if err != nil {
		return err
	}
	RenderAblationWindow(w, spec.Name, win)
	fmt.Fprintln(w)
	bub, err := AblationBubbles(mustSpec("osativa-like").GenomeLen(scale), 0.004, opts)
	if err != nil {
		return err
	}
	RenderAblationBubbles(w, bub)
	return nil
}

func mustSpec(name string) Spec {
	s, ok := SpecByName(name)
	if !ok {
		panic("experiments: unknown spec " + name)
	}
	return s
}
