package obs

import (
	"math"
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
