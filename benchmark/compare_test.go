package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// synthetic builds a result file with one untraced hifi_stream run per
// value of reads_per_s and cpu_us_per_read.
func synthetic(readsPerS, cpuUS []float64) *resultFile {
	f := &resultFile{Schema: "jem-benchmark/v1"}
	for i := range readsPerS {
		f.Runs = append(f.Runs, &runResult{
			Workload: "hifi_stream", Seed: int64(i + 1), Correct: true, Attempted: 1,
			Metrics: map[string]metricValue{
				"reads_per_s":     {Value: readsPerS[i], Unit: "1/s"},
				"cpu_us_per_read": {Value: cpuUS[i], Unit: "us"},
			},
		})
	}
	// A traced run's numbers must never be compared.
	f.Runs = append(f.Runs, &runResult{Workload: "hifi_stream", Traced: true,
		Metrics: map[string]metricValue{"reads_per_s": {Value: 1, Unit: "1/s"}}})
	return f
}

func verdicts(rows []compareRow) map[string]string {
	out := make(map[string]string)
	for _, r := range rows {
		out[r.Workload+"/"+r.Metric.Name] = r.Verdict
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	base := synthetic([]float64{1000, 1010, 990, 1005}, []float64{80, 81, 79, 80.5})
	for _, tc := range []struct {
		name         string
		change       *resultFile
		reads, cpuUS string
	}{
		{"same", synthetic([]float64{1002, 1008, 992, 1001}, []float64{80.2, 80.9, 79.1, 80.4}), verdictWithin, verdictWithin},
		// 30 % fewer reads/s and 10 % more CPU, both bounds being 25 %.
		{"slower", synthetic([]float64{690, 700, 695, 705}, []float64{88, 89, 87, 88.5}), verdictWorse, verdictWithin},
		// Every run beats every base run: better, even on the metric
		// whose own spread (about 34 %) is wider than its bound.
		{"faster", synthetic([]float64{1200, 1210, 1190, 1205}, []float64{40, 60, 50, 45}), verdictBetter, verdictBetter},
		// Medians are worse, but the change's runs are too scattered
		// (spreads of 62 % and 45 %) to tell: unresolved, not worse and
		// not unchanged.
		{"noisy", synthetic([]float64{500, 1100, 700, 1000}, []float64{60, 110, 85, 100}), verdictUnresolved, verdictUnresolved},
	} {
		got := verdicts(compareResults(base, tc.change))
		if got["hifi_stream/reads_per_s"] != tc.reads || got["hifi_stream/cpu_us_per_read"] != tc.cpuUS {
			t.Errorf("%s: reads_per_s %s (want %s), cpu_us_per_read %s (want %s)", tc.name,
				got["hifi_stream/reads_per_s"], tc.reads, got["hifi_stream/cpu_us_per_read"], tc.cpuUS)
		}
		if len(got) != 2 {
			t.Errorf("%s: rows %v, want the two metrics the files have", tc.name, got)
		}
	}
}

func TestCompareMissingSideIsUnresolved(t *testing.T) {
	base := synthetic([]float64{1000}, []float64{80})
	empty := &resultFile{}
	for _, r := range compareResults(base, empty) {
		if r.Verdict != verdictUnresolved {
			t.Errorf("%s with no runs in the change: %s", r.Metric.Name, r.Verdict)
		}
	}
}

// The command reads two files, prints a row per metric with both
// medians and the delta's base, and fails exactly when a row is worse.
func TestCompareCommandExitStatus(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, f *resultFile) string {
		buf, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", synthetic([]float64{1000, 1010, 990}, []float64{80, 81, 79}))
	same := write("same.json", synthetic([]float64{1001, 1009, 991}, []float64{80.1, 80.9, 79.2}))
	slow := write("slow.json", synthetic([]float64{700, 710, 690}, []float64{80, 81, 79}))

	var out bytes.Buffer
	if err := cmdCompare([]string{a, same}, &out); err != nil {
		t.Errorf("same code compared worse: %v\n%s", err, out.String())
	}
	for _, want := range []string{"hifi_stream", "reads_per_s", "1/s", "n=3", "within-bound", "(B - A) / A"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if err := cmdCompare([]string{a, slow}, &out); err == nil || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("a 30 %% slowdown passed: err=%v\n%s", err, out.String())
	}
	if err := cmdCompare([]string{a}, &out); err == nil {
		t.Error("one argument accepted")
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	s := summarize([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if s.N != 10 || s.Q1 != 3.5 || s.Median != 13.5 || s.Q3 != 31 {
		t.Errorf("got %+v, want n=10 q1=3.5 median=13.5 q3=31", s)
	}
	if one := summarize([]float64{5}); one.Q1 != 5 || one.Q3 != 5 || one.Median != 5 {
		t.Errorf("single value: %+v", one)
	}
}
