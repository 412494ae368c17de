package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"

	"repro/internal/stats"
)

// Kind distinguishes instrument types in a Registry.
type Kind uint8

const (
	// KindCounter is a monotonically increasing int64.
	KindCounter Kind = iota
	// KindGauge is a settable float64 (or a scrape-time callback).
	KindGauge
	// KindHistogram is a fixed-boundary latency histogram.
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

type entry struct {
	name, help string
	kind       Kind
	counter    *Counter
	gauge      *Gauge
	gaugeFn    func() float64
	wall       *Wall
	hist       *Histogram
}

// gaugeValue reads a KindGauge entry whatever its backing form: a
// settable Gauge, a render-time callback, or an integer-nanosecond
// Wall rendered as seconds.
func (e *entry) gaugeValue() float64 {
	switch {
	case e.gaugeFn != nil:
		return e.gaugeFn()
	case e.wall != nil:
		return e.wall.Seconds()
	default:
		return e.gauge.Value()
	}
}

// Registry names instruments and renders them. Registration is
// idempotent: asking for an existing name returns the existing
// instrument (and panics if the kind differs — a naming bug).
// Each Registry also owns a Tracer for phase spans, so one handle
// carries both metrics and timing breakdowns.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
	tracer  *Tracer
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry), tracer: NewTracer()}
}

// Tracer returns the registry's phase tracer.
func (r *Registry) Tracer() *Tracer { return r.tracer }

func (r *Registry) get(name string, kind Kind) *entry {
	e, ok := r.entries[name]
	if !ok {
		return nil
	}
	if e.kind != kind {
		panic(fmt.Sprintf("obs: %q already registered as a %s, requested as a %s", name, e.kind, kind))
	}
	return e
}

// Counter returns the counter registered under name, creating it on
// first use.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.get(name, KindCounter); e != nil {
		return e.counter
	}
	c := &Counter{}
	r.entries[name] = &entry{name: name, help: help, kind: KindCounter, counter: c}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.get(name, KindGauge); e != nil {
		if e.gauge == nil {
			panic(fmt.Sprintf("obs: %q is not a settable gauge", name))
		}
		return e.gauge
	}
	g := &Gauge{}
	r.entries[name] = &entry{name: name, help: help, kind: KindGauge, gauge: g}
	return g
}

// Wall returns the wall-clock instrument registered under name,
// creating it on first use. It renders as a float-seconds gauge but
// accumulates integer nanoseconds (see the Wall type).
func (r *Registry) Wall(name, help string) *Wall {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.get(name, KindGauge); e != nil {
		if e.wall == nil {
			panic(fmt.Sprintf("obs: %q is not a wall gauge", name))
		}
		return e.wall
	}
	w := &Wall{}
	r.entries[name] = &entry{name: name, help: help, kind: KindGauge, wall: w}
	return w
}

// GaugeFunc registers a gauge whose value is computed by fn at render
// time (e.g. runtime stats). Re-registering an existing name keeps the
// original callback.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.get(name, KindGauge); e != nil {
		return
	}
	r.entries[name] = &entry{name: name, help: help, kind: KindGauge, gaugeFn: fn}
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket bounds on first use (later calls ignore the
// bounds argument and return the existing instrument).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.get(name, KindHistogram); e != nil {
		return e.hist
	}
	h := NewHistogram(bounds)
	r.entries[name] = &entry{name: name, help: help, kind: KindHistogram, hist: h}
	return h
}

// sorted returns the entries ordered by name (stable render output).
func (r *Registry) sorted() []*entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4): HELP/TYPE headers, counter and
// gauge samples, and cumulative le-labelled histogram buckets.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, e := range r.sorted() {
		if e.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", e.name, e.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", e.name, e.kind); err != nil {
			return err
		}
		var err error
		switch e.kind {
		case KindCounter:
			_, err = fmt.Fprintf(w, "%s %d\n", e.name, e.counter.Value())
		case KindGauge:
			_, err = fmt.Fprintf(w, "%s %s\n", e.name, formatFloat(e.gaugeValue()))
		case KindHistogram:
			counts := e.hist.BucketCounts()
			var cum int64
			for i, ub := range e.hist.Bounds() {
				cum += counts[i]
				if _, err = fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", e.name, formatFloat(ub), cum); err != nil {
					return err
				}
			}
			cum += counts[len(counts)-1]
			if _, err = fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", e.name, cum); err != nil {
				return err
			}
			if _, err = fmt.Fprintf(w, "%s_sum %s\n", e.name, formatFloat(e.hist.Sum())); err != nil {
				return err
			}
			_, err = fmt.Fprintf(w, "%s_count %d\n", e.name, cum)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteTable renders the registry as a fixed-width human table
// (histograms show count, mean and p50/p95/p99 estimates), followed
// by the tracer's span tree when any spans were recorded.
func (r *Registry) WriteTable(w io.Writer) error {
	tb := stats.NewTable("metric", "kind", "value")
	for _, e := range r.sorted() {
		switch e.kind {
		case KindCounter:
			tb.AddRow(e.name, "counter", fmt.Sprintf("%d", e.counter.Value()))
		case KindGauge:
			tb.AddRow(e.name, "gauge", formatFloat(e.gaugeValue()))
		case KindHistogram:
			h := e.hist
			mean := 0.0
			if n := h.Count(); n > 0 {
				mean = h.Sum() / float64(n)
			}
			tb.AddRow(e.name, "histogram", fmt.Sprintf(
				"n=%d mean=%.3g p50=%.3g p95=%.3g p99=%.3g",
				h.Count(), mean, h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99)))
		}
	}
	if _, err := io.WriteString(w, tb.String()); err != nil {
		return err
	}
	if len(r.tracer.Roots()) > 0 {
		if _, err := io.WriteString(w, "\nspans:\n"); err != nil {
			return err
		}
		return r.tracer.Render(w)
	}
	return nil
}

// Snapshot returns a flat name → value view of the registry: counters
// and gauges under their own names, histograms as name_count and
// name_sum. jem.Stats is derived from it, and the benchmark reads it.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	for _, e := range r.sorted() {
		switch e.kind {
		case KindCounter:
			out[e.name] = float64(e.counter.Value())
		case KindGauge:
			out[e.name] = e.gaugeValue()
		case KindHistogram:
			out[e.name+"_count"] = float64(e.hist.Count())
			out[e.name+"_sum"] = e.hist.Sum()
		}
	}
	return out
}
