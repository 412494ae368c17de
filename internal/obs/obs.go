// Package obs is the repository's observability layer: a small,
// dependency-free (standard library only) metrics and tracing toolkit
// shared by the mapper core, the streaming pipeline, the distributed
// driver and the CLIs.
//
// It provides three things:
//
//   - Instruments — atomic Counter and Gauge, and a fixed-boundary
//     latency Histogram with percentile estimation (the bucket math
//     lives in internal/stats).
//   - A Registry that names instruments, renders them as a human
//     table or Prometheus-style text exposition, and owns a Tracer
//     for nested phase spans (index build → freeze → query;
//     reader → map → write; per-rank sketch → gather → map).
//   - Serve, which exposes a registry on an HTTP side goroutine:
//     /metrics (text exposition), /statusz (the human table) and
//     /debug/pprof/* — so a long run can be watched and profiled
//     live (jem-mapper -metrics-addr, jem-bench -metrics-addr).
//
// All instruments are safe for concurrent use; updates are single
// atomic operations so they can sit on query hot paths.
package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing int64 metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds d (d must be ≥ 0 to keep the counter monotonic; this is
// not enforced, matching Prometheus client conventions' cheap path).
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Wall is a cumulative wall-clock instrument backed by an integer
// nanosecond count. It renders as a float-seconds gauge (the
// Prometheus convention) but, unlike accumulating float seconds in a
// Gauge, integer addition never loses precision: a float64 gauge that
// has grown large absorbs small additions into rounding error, so a
// long-lived server's wall counters would drift low. Int64 nanoseconds
// overflow after ~292 years of accumulated wall time.
type Wall struct {
	ns atomic.Int64
}

// Add folds one measured duration into the total.
func (w *Wall) Add(d time.Duration) { w.ns.Add(int64(d)) }

// Seconds returns the total as float seconds (the render-time
// conversion; the stored value stays integer).
func (w *Wall) Seconds() float64 { return float64(w.ns.Load()) / float64(time.Second) }

// Gauge is a float64 metric that is set to its current value.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }
