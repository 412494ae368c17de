package experiments

import (
	"os"
	"testing"

	"repro"
)

// tinyScale keeps unit-test datasets at the 50 kbp floor.
const tinyScale = 0.0001

func testOptions() jem.Options {
	o := jem.DefaultOptions()
	return o
}

func TestAblationsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset synthesis is slow")
	}
	spec := SimSpecs()[0]
	ord, err := AblationOrdering(spec, tinyScale, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if ord.Lex.Precision < 0.8 || ord.Hash.Precision < 0.8 {
		t.Errorf("ordering ablation precision too low: %+v", ord)
	}
	segs, err := AblationEndSegments(spec, tinyScale, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if segs.SegmentAccuracy < 0.8 {
		t.Errorf("segment accuracy %.3f", segs.SegmentAccuracy)
	}
	if segs.SegmentQueryBases >= segs.WholeQueryBases {
		t.Errorf("end segments should sketch fewer bases: %d vs %d",
			segs.SegmentQueryBases, segs.WholeQueryBases)
	}
	lazy, err := AblationLazyCounters(spec, tinyScale, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if lazy.LazySeconds <= 0 || lazy.MapCounterSeconds <= 0 {
		t.Errorf("ablation timings: %+v", lazy)
	}
	win, err := AblationWindow(spec, tinyScale, []int{20, 100}, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(win) != 2 {
		t.Fatalf("window points: %+v", win)
	}
	// Smaller w keeps more minimizers → denser table.
	if win[0].TableEntries <= win[1].TableEntries {
		t.Errorf("w=20 entries %d should exceed w=100 entries %d",
			win[0].TableEntries, win[1].TableEntries)
	}
	bub, err := AblationBubbles(100_000, 0.004, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if bub.Popped.BubblesPopped == 0 || bub.Unpopped.BubblesPopped != 0 {
		t.Errorf("bubble ablation arms wrong: %+v", bub)
	}
	if bub.Popped.ContigN50 <= bub.Unpopped.ContigN50 {
		t.Errorf("popping should raise contig N50: %d vs %d",
			bub.Popped.ContigN50, bub.Unpopped.ContigN50)
	}
	RenderAblationOrdering(os.Stderr, ord)
	RenderAblationSegments(os.Stderr, segs)
	RenderAblationLazy(os.Stderr, lazy)
	RenderAblationWindow(os.Stderr, spec.Name, win)
	RenderAblationBubbles(os.Stderr, bub)
}

func TestScalingSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset synthesis is slow")
	}
	spec := SimSpecs()[0]
	rows, err := Table2([]Spec{spec}, tinyScale, []int{2, 4}, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	RenderTable2(os.Stderr, rows)
	if len(rows[0].JEMRuntime) != 2 {
		t.Fatalf("expected 2 runtimes, got %d", len(rows[0].JEMRuntime))
	}
}
