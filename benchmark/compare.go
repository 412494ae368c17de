package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one workload x metric row.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictWithin     = "within-bound"
	verdictUnresolved = "unresolved"
)

// compareRow is one workload x end-to-end metric line of compare.
type compareRow struct {
	Workload string
	Metric   metricDef
	A, B     summary
	// Delta is (B median − A median) / A median: a share of the base A.
	Delta   float64
	Verdict string
}

// cmdCompare is `benchmark compare A.json B.json`: A is the base
// (parent), B the change. It prints one row per workload and
// end-to-end metric and fails when any row is worse.
func cmdCompare(args []string, w io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("compare wants two result files, got %d", len(args))
	}
	a, err := loadResults(args[0])
	if err != nil {
		return err
	}
	b, err := loadResults(args[1])
	if err != nil {
		return err
	}
	rows := compareResults(a, b)
	worse := printCompare(w, rows, args[0], args[1])
	if worse > 0 {
		return fmt.Errorf("%d of %d rows are worse than the bound allows", worse, len(rows))
	}
	return nil
}

func loadResults(path string) (*resultFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values collects metric name's value from every untraced run of
// workload in f: one per seed the file was run with.
func (f *resultFile) values(workload, name string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Traced {
			out = append(out, m.Value)
		}
	}
	return out
}

// compareResults builds the rows for every workload either file has
// untraced runs of.
func compareResults(a, b *resultFile) []compareRow {
	var rows []compareRow
	for _, wl := range workloads {
		for _, def := range endToEnd {
			av, bv := a.values(wl.Name, def.Name), b.values(wl.Name, def.Name)
			if len(av) == 0 && len(bv) == 0 {
				continue
			}
			rows = append(rows, judge(wl.Name, def, av, bv))
		}
	}
	return rows
}

// judge applies the rule of the choosing-metrics guide to one row: the
// change's median may be worse than the base's by at most the
// metric's bound; where the run-to-run spread of either side is wider
// than the bound the row is unresolved, unless every run of the
// change reads better than every run of the base. A side with no runs
// is unresolved too.
func judge(workload string, def metricDef, av, bv []float64) compareRow {
	row := compareRow{Workload: workload, Metric: def, A: summarize(av), B: summarize(bv), Verdict: verdictUnresolved}
	if len(av) == 0 || len(bv) == 0 || row.A.Median == 0 {
		return row
	}
	row.Delta = (row.B.Median - row.A.Median) / row.A.Median
	worseBy := row.Delta
	if def.Better == "higher" {
		worseBy = -worseBy
	}
	spread := max(row.A.spread(), row.B.spread())
	switch {
	case spread > def.Bound:
		if allBetter(def, av, bv) {
			row.Verdict = verdictBetter
		}
	case worseBy > def.Bound:
		row.Verdict = verdictWorse
	case -worseBy > spread && allBetter(def, av, bv):
		row.Verdict = verdictBetter
	default:
		row.Verdict = verdictWithin
	}
	return row
}

// allBetter reports whether every value of bv reads better than every
// value of av.
func allBetter(def metricDef, av, bv []float64) bool {
	for _, b := range bv {
		for _, a := range av {
			if (def.Better == "higher" && b <= a) || (def.Better != "higher" && b >= a) {
				return false
			}
		}
	}
	return true
}

// printCompare prints the rows and returns how many are worse.
func printCompare(w io.Writer, rows []compareRow, aName, bName string) (worse int) {
	fmt.Fprintf(w, "base A = %s, change B = %s; delta is (B - A) / A on the medians\n", aName, bName)
	fmt.Fprintf(w, "%-12s %-16s %-6s %-40s %-40s %9s %7s  %s\n", "workload", "metric", "unit", "A median [q1 .. q3] n", "B median [q1 .. q3] n", "delta", "bound", "verdict")
	cell := func(s summary) string {
		if s.N == 0 {
			return "-"
		}
		return fmt.Sprintf("%.4g [%.4g .. %.4g] n=%d", s.Median, s.Q1, s.Q3, s.N)
	}
	tally := make(map[string]int)
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-16s %-6s %-40s %-40s %+8.2f%% %6.1f%%  %s\n",
			r.Workload, r.Metric.Name, r.Metric.Unit, cell(r.A), cell(r.B), 100*r.Delta, 100*r.Metric.Bound, r.Verdict)
		tally[r.Verdict]++
	}
	fmt.Fprintf(w, "%d rows: %d better, %d within-bound, %d unresolved, %d worse\n",
		len(rows), tally[verdictBetter], tally[verdictWithin], tally[verdictUnresolved], tally[verdictWorse])
	return tally[verdictWorse]
}
