package obs

import (
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/stats"
)

// Histogram is a concurrency-safe fixed-boundary histogram in the
// Prometheus style: observations are counted into buckets whose upper
// bounds are set at construction, plus an implicit +Inf overflow
// bucket, and the sum of all observations is tracked so both rates
// and percentile estimates can be derived from a scrape.
type Histogram struct {
	bounds []float64 // strictly increasing finite upper bounds
	counts []atomic.Int64
	n      atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// NewHistogram builds a histogram over the given strictly increasing
// upper bounds. It panics on an empty or unsorted bound list — a
// programming error, matching internal/stats.NewHistogram.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
	b := append([]float64(nil), bounds...)
	return &Histogram{
		bounds: b,
		counts: make([]atomic.Int64, len(b)+1),
	}
}

// LatencyBuckets returns the default bounds for request-latency
// histograms: roughly exponential from 1µs to 10s, in seconds.
func LatencyBuckets() []float64 {
	return []float64{
		1e-6, 2.5e-6, 5e-6,
		1e-5, 2.5e-5, 5e-5,
		1e-4, 2.5e-4, 5e-4,
		1e-3, 2.5e-3, 5e-3,
		1e-2, 2.5e-2, 5e-2,
		0.1, 0.25, 0.5,
		1, 2.5, 5, 10,
	}
}

// Observe counts one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.n.Add(1)
	for {
		old := h.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Bounds returns the finite upper bounds (not including +Inf).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// BucketCounts returns a snapshot of the per-bucket counts; the last
// entry is the +Inf overflow bucket. Concurrent observations may land
// between bucket loads, so the snapshot is only weakly consistent —
// fine for scraping and percentile estimates.
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear
// interpolation inside the bucket holding the target rank, the same
// estimate Prometheus's histogram_quantile computes. Values beyond
// the largest finite bound clamp to it. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	return stats.QuantileFromBuckets(h.bounds, h.BucketCounts(), q)
}
