package obs

import (
	"math"
	"strings"
	"testing"
)

// expSamples returns n deterministic samples of an Exponential(rate)
// distribution via the inverse CDF over an evenly spaced grid — a
// known distribution with known quantiles, no RNG flakiness.
func expSamples(n int, rate float64) []float64 {
	out := make([]float64, 0, n)
	for i := 1; i <= n; i++ {
		u := (float64(i) - 0.5) / float64(n)
		out = append(out, -math.Log(1-u)/rate)
	}
	return out
}

// expQuantile is the exact q-quantile of Exponential(rate).
func expQuantile(q, rate float64) float64 { return -math.Log(1-q) / rate }

// TestHistogramExponentialAccuracy checks percentile estimation on a
// known skewed distribution: Exponential(100) — mean 10ms — observed
// into the latency buckets. The estimate interpolates inside a
// bucket, so the tolerance is the width of the bucket holding the
// true quantile.
func TestHistogramExponentialAccuracy(t *testing.T) {
	h := NewHistogram(LatencyBuckets())
	const rate = 100.0
	for _, v := range expSamples(100000, rate) {
		h.Observe(v)
	}
	bounds := h.Bounds()
	for _, q := range []float64{0.5, 0.9, 0.99} {
		truth := expQuantile(q, rate)
		got := h.Quantile(q)
		// Tolerance: the bucket holding the true value.
		lo, hi := 0.0, bounds[len(bounds)-1]
		for i, ub := range bounds {
			if truth <= ub {
				hi = ub
				if i > 0 {
					lo = bounds[i-1]
				}
				break
			}
		}
		if got < lo || got > hi {
			t.Errorf("q=%.2f: estimate %.5f outside bucket [%.5f, %.5f] holding the true %.5f",
				q, got, lo, hi, truth)
		}
	}
}

func TestHistogramExemplars(t *testing.T) {
	h := NewHistogram([]float64{0.01, 0.1, 1})
	h.ObserveExemplar(0.05, "trace-a")
	h.ObserveExemplar(0.07, "trace-b") // same bucket: latest wins
	h.ObserveExemplar(50, "trace-inf") // overflow bucket
	h.Observe(0.5)                     // unlabeled: no exemplar
	ex := h.Exemplars()
	if len(ex) != 2 {
		t.Fatalf("got %d exemplars, want 2: %+v", len(ex), ex)
	}
	if ex[0].Label != "trace-b" || ex[0].UpperBound != 0.1 || ex[0].Value != 0.07 {
		t.Errorf("bucket exemplar wrong: %+v", ex[0])
	}
	if ex[1].Label != "trace-inf" || !math.IsInf(ex[1].UpperBound, 1) {
		t.Errorf("overflow exemplar wrong: %+v", ex[1])
	}
	if h.Count() != 4 {
		t.Errorf("count = %d, want 4 (exemplar observations count)", h.Count())
	}

	// Exemplars surface in the statusz table.
	reg := NewRegistry()
	rh := reg.Histogram("test_seconds", "help", []float64{0.01, 0.1, 1})
	rh.ObserveExemplar(0.05, "deadbeefdeadbeef")
	var sb strings.Builder
	if err := reg.WriteTable(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "deadbeefdeadbeef") {
		t.Errorf("statusz table missing the exemplar:\n%s", sb.String())
	}
}
