package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentInstruments hammers every instrument kind from many
// goroutines; run under -race this doubles as the data-race check,
// and the totals must still be exact.
func TestConcurrentInstruments(t *testing.T) {
	const goroutines, perG = 16, 10_000
	reg := NewRegistry()
	c := reg.Counter("c_total", "hammered counter")
	g := reg.Gauge("g", "hammered gauge")
	h := reg.Histogram("h_seconds", "hammered histogram", []float64{0.25, 0.5, 0.75, 1})

	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
				g.Set(0.5)
				h.Observe(float64(j%4) * 0.25)
			}
		}(i)
	}
	wg.Wait()

	if got, want := c.Value(), int64(goroutines*perG); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	if got, want := g.Value(), 0.5; got != want {
		t.Errorf("gauge = %v, want %v", got, want)
	}
	if got, want := h.Count(), int64(goroutines*perG); got != want {
		t.Errorf("histogram count = %d, want %d", got, want)
	}
	wantSum := float64(goroutines) * perG / 4 * (0 + 0.25 + 0.5 + 0.75)
	if math.Abs(h.Sum()-wantSum) > 1e-6 {
		t.Errorf("histogram sum = %v, want %v", h.Sum(), wantSum)
	}
	var n int64
	for _, b := range h.BucketCounts() {
		n += b
	}
	if n != int64(goroutines*perG) {
		t.Errorf("bucket counts sum to %d, want %d", n, goroutines*perG)
	}
}

// TestHistogramQuantileAccuracy observes a known uniform distribution
// and checks the interpolated percentiles land within one bucket width
// of the true values.
func TestHistogramQuantileAccuracy(t *testing.T) {
	bounds := make([]float64, 20) // uniform bounds 0.05..1.0
	for i := range bounds {
		bounds[i] = float64(i+1) * 0.05
	}
	h := NewHistogram(bounds)
	const n = 100_000
	for i := 0; i < n; i++ {
		h.Observe(float64(i) / n) // uniform on [0,1)
	}
	for _, q := range []float64{0.1, 0.25, 0.5, 0.9, 0.99} {
		got := h.Quantile(q)
		if math.Abs(got-q) > 0.05 {
			t.Errorf("Quantile(%v) = %v, want within one bucket (0.05) of %v", q, got, q)
		}
	}
	if got := h.Quantile(0); got < 0 || got > 0.05 {
		t.Errorf("Quantile(0) = %v, want inside the first bucket", got)
	}
	if got := h.Quantile(1); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("Quantile(1) = %v, want 1.0", got)
	}
}

func TestHistogramOverflowClamps(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	h.Observe(100) // lands in +Inf bucket
	if got := h.Quantile(0.5); got != 2 {
		t.Errorf("overflow quantile = %v, want clamp to 2", got)
	}
	counts := h.BucketCounts()
	if counts[2] != 1 {
		t.Errorf("overflow bucket = %d, want 1", counts[2])
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	h := NewHistogram([]float64{1})
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}

// TestWritePrometheusGolden pins the exact text exposition of a small
// registry: sorted by name, HELP/TYPE headers, cumulative buckets.
func TestWritePrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("jem_segments_total", "segments mapped").Add(7)
	reg.Gauge("jem_read_wall_seconds", "reader wall time").Set(1.5)
	h := reg.Histogram("jem_lookup_seconds", "lookup latency", []float64{0.5, 2})
	h.Observe(0.25)
	h.Observe(0.25)
	h.Observe(1.5)
	h.Observe(5)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		`# HELP jem_lookup_seconds lookup latency`,
		`# TYPE jem_lookup_seconds histogram`,
		`jem_lookup_seconds_bucket{le="0.5"} 2`,
		`jem_lookup_seconds_bucket{le="2"} 3`,
		`jem_lookup_seconds_bucket{le="+Inf"} 4`,
		`jem_lookup_seconds_sum 7`,
		`jem_lookup_seconds_count 4`,
		`# HELP jem_read_wall_seconds reader wall time`,
		`# TYPE jem_read_wall_seconds gauge`,
		`jem_read_wall_seconds 1.5`,
		`# HELP jem_segments_total segments mapped`,
		`# TYPE jem_segments_total counter`,
		`jem_segments_total 7`,
		``,
	}, "\n")
	if buf.String() != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestRegistryIdempotentAndKindChecked(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "")
	b := reg.Counter("x_total", "")
	if a != b {
		t.Error("re-registering a counter returned a new instrument")
	}
	h1 := reg.Histogram("h", "", []float64{1, 2})
	h2 := reg.Histogram("h", "", []float64{9}) // bounds ignored on re-register
	if h1 != h2 {
		t.Error("re-registering a histogram returned a new instrument")
	}
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch did not panic")
		}
	}()
	reg.Gauge("x_total", "")
}

func TestSnapshot(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c_total", "").Add(3)
	reg.Gauge("g", "").Set(2.5)
	reg.GaugeFunc("fn", "", func() float64 { return 42 })
	h := reg.Histogram("h", "", []float64{1})
	h.Observe(0.5)
	h.Observe(3)
	snap := reg.Snapshot()
	for name, want := range map[string]float64{
		"c_total": 3, "g": 2.5, "fn": 42, "h_count": 2, "h_sum": 3.5,
	} {
		if snap[name] != want {
			t.Errorf("snapshot[%q] = %v, want %v", name, snap[name], want)
		}
	}
}

func TestWriteTableRenders(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c_total", "").Add(1)
	reg.Histogram("h", "", []float64{1}).Observe(0.5)
	sp := reg.Tracer().Start("root")
	sp.Child("phase").End()
	sp.End()
	var buf bytes.Buffer
	if err := reg.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"c_total", "histogram", "spans:", "root", "phase"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}
