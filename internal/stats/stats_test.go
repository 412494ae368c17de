package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.n != 8 {
		t.Errorf("N = %d", s.n)
	}
	if s.Mean() != 5 {
		t.Errorf("mean = %v", s.Mean())
	}
	if math.Abs(s.StdDev()-2) > 1e-9 {
		t.Errorf("stddev = %v want 2", s.StdDev())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.StdDev() != 0 || s.n != 0 {
		t.Error("empty summary should be zero")
	}
}

func TestSummaryMatchesBatch(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(100)
		xs := make([]float64, n)
		var s Summary
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
			s.Add(xs[i])
		}
		return math.Abs(s.Mean()-Mean(xs)) < 1e-6 &&
			math.Abs(s.StdDev()-StdDev(xs)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Add(float64(i) + 0.5)
	}
	h.Add(-5)  // clamps to first bin
	h.Add(100) // clamps to last bin
	if h.total != 12 {
		t.Errorf("total = %d", h.total)
	}
	if h.Counts[0] != 2 || h.Counts[9] != 2 {
		t.Errorf("clamping failed: %v", h.Counts)
	}
	if h.Fraction(0) != 2.0/12 {
		t.Errorf("fraction = %v", h.Fraction(0))
	}
	if h.BinLabel(0) != "0-1" {
		t.Errorf("label = %q", h.BinLabel(0))
	}
	render := h.Render(20)
	if !strings.Contains(render, "#") || strings.Count(render, "\n") != 10 {
		t.Errorf("render = %q", render)
	}
}

func TestHistogramPanicsOnBadConfig(t *testing.T) {
	for _, f := range []func(){
		func() { NewHistogram(0, 10, 0) },
		func() { NewHistogram(10, 10, 5) },
		func() { NewHistogram(10, 0, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("alpha", 1)
	tb.AddRow("a-much-longer-name", 2.5)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[3], "2.50") {
		t.Errorf("float formatting: %q", lines[3])
	}
	// Columns aligned: both data rows have the value at the same offset.
	if strings.Index(lines[2], "1") <= strings.Index(lines[2], "alpha") {
		t.Errorf("row = %q", lines[2])
	}
}

func TestMeanStdDevEdge(t *testing.T) {
	if Mean(nil) != 0 || StdDev(nil) != 0 || StdDev([]float64{5}) != 0 {
		t.Error("edge cases should be zero")
	}
}

func TestQuantileFromBuckets(t *testing.T) {
	uppers := []float64{1, 2, 3, 4}
	// 10 observations per bucket, none overflowing.
	counts := []int64{10, 10, 10, 10, 0}
	cases := []struct{ q, want float64 }{
		{0, 0}, {0.25, 1}, {0.5, 2}, {0.75, 3}, {1, 4}, {0.125, 0.5},
	}
	for _, c := range cases {
		if got := QuantileFromBuckets(uppers, counts, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Overflow ranks clamp to the largest finite bound.
	if got := QuantileFromBuckets(uppers, []int64{0, 0, 0, 0, 5}, 0.5); got != 4 {
		t.Errorf("overflow quantile = %v, want 4", got)
	}
	// Empty histograms report zero.
	if got := QuantileFromBuckets(uppers, make([]int64, 5), 0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
	// Out-of-range q clamps.
	if got := QuantileFromBuckets(uppers, counts, 7); got != 4 {
		t.Errorf("q>1 quantile = %v, want 4", got)
	}
}

// Mean is the batch mean of a float slice (0 when empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev is the batch population standard deviation (0 when n < 2),
// the reference Summary's online estimate is compared against.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		s += (x - m) * (x - m)
	}
	return math.Sqrt(s / float64(len(xs)))
}
