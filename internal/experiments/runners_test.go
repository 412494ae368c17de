package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestAllRunnersTinyScale drives every exhibit runner end to end on
// tiny datasets and sanity-checks both the structured results and the
// text renderings.
func TestAllRunnersTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset synthesis is slow")
	}
	opts := testOptions()
	specs := SimSpecs()[:2]
	var out bytes.Buffer

	t.Run("fig7a", func(t *testing.T) {
		rows, err := Fig7a(specs[:1], tinyScale, 4, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 || len(rows[0].Steps) == 0 {
			t.Fatalf("rows = %+v", rows)
		}
		if rows[0].Total <= 0 {
			t.Error("zero total")
		}
		out.Reset()
		RenderFig7a(&out, rows)
		if !strings.Contains(out.String(), "S4 map queries") {
			t.Error("rendering missing steps")
		}
		RenderFig7a(&out, nil) // empty input is a no-op
	})

	t.Run("fig7b", func(t *testing.T) {
		rows, err := Fig7b(specs[:1], tinyScale, []int{2, 4}, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, th := range rows[0].Throughput {
			if th <= 0 {
				t.Errorf("non-positive throughput: %+v", rows[0])
			}
		}
		out.Reset()
		RenderFig7b(&out, rows)
		if !strings.Contains(out.String(), "q/s") {
			t.Error("rendering missing units")
		}
		RenderFig7b(&out, nil)
	})

	t.Run("fig8", func(t *testing.T) {
		rows, err := Fig8(specs[:1], tinyScale, []int{2, 4}, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range rows[0].P {
			sum := rows[0].CommPct[i] + rows[0].CompPct[i]
			if sum < 99.9 || sum > 100.1 {
				t.Errorf("percentages do not sum to 100: %+v", rows[0])
			}
		}
		out.Reset()
		RenderFig8(&out, rows)
		if !strings.Contains(out.String(), "comm %") {
			t.Error("rendering missing rows")
		}
		RenderFig8(&out, nil)
	})

	t.Run("table2-render", func(t *testing.T) {
		rows, err := Table2(specs[:1], tinyScale, []int{2, 4}, opts)
		if err != nil {
			t.Fatal(err)
		}
		out.Reset()
		RenderTable2(&out, rows)
		if !strings.Contains(out.String(), "strong scaling") {
			t.Error("rendering missing title")
		}
		RenderTable2(&out, nil)
		if rows[0].Speedup(1) <= 0 {
			t.Errorf("speedup: %+v", rows[0])
		}
	})
}

func TestCoverageSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset synthesis is slow")
	}
	spec := SimSpecs()[2] // enough contigs for links to exist
	pts, err := CoverageSweep(spec, tinyScale, []float64{3, 12}, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %+v", pts)
	}
	// More coverage → at least as many links.
	if pts[1].Links < pts[0].Links {
		t.Errorf("links fell with coverage: %+v", pts)
	}
	for _, p := range pts {
		if p.Quality.Precision < 0.8 {
			t.Errorf("precision %.3f at %gx", p.Quality.Precision, p.Coverage)
		}
		if p.ScaffoldN50 < p.ContigN50 {
			t.Errorf("scaffold N50 %d below contig N50 %d at %gx", p.ScaffoldN50, p.ContigN50, p.Coverage)
		}
	}
	var buf bytes.Buffer
	RenderCoverage(&buf, spec.Name, pts)
	if !strings.Contains(buf.String(), "Coverage sweep") {
		t.Error("render missing title")
	}
	buf.Reset()
	if err := CoverageCSV(&buf, spec.Name, pts); err != nil {
		t.Fatal(err)
	}
	if recs := parseCSV(t, buf.Bytes()); len(recs) != 3 {
		t.Errorf("csv recs = %v", recs)
	}
}

func TestSpecLookup(t *testing.T) {
	if _, ok := SpecByName("bsplendens-like"); !ok {
		t.Error("known spec missing")
	}
	if _, ok := SpecByName("no-such-spec"); ok {
		t.Error("unknown spec found")
	}
	if len(PaperSpecs()) != 8 || len(SimSpecs()) != 6 {
		t.Error("spec counts changed")
	}
	s := PaperSpecs()[0]
	if s.GenomeLen(1e-9) != 50_000 {
		t.Errorf("genome floor = %d", s.GenomeLen(1e-9))
	}
}

func TestBuildCaches(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset synthesis is slow")
	}
	spec := SimSpecs()[0]
	d1, err := Build(spec, tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Build(spec, tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Error("same spec+scale should hit the cache")
	}
	if len(d1.Truth) != len(d1.Reads) {
		t.Error("truth reads out of sync")
	}
}
