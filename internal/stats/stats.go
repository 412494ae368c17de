// Package stats provides the small numeric and presentation helpers
// the experiment harness uses: running summaries, histograms, and
// fixed-width text tables matching the layout of the paper's tables.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Summary accumulates count/mean/stddev online (Welford).
type Summary struct {
	n        int64
	mean, m2 float64
}

// Add folds one observation into the summary.
func (s *Summary) Add(x float64) {
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// Mean returns the running mean (0 when empty).
func (s *Summary) Mean() float64 { return s.mean }

// StdDev returns the population standard deviation (0 when n < 2).
func (s *Summary) StdDev() float64 {
	if s.n < 2 {
		return 0
	}
	return math.Sqrt(s.m2 / float64(s.n))
}

// Histogram counts observations into uniform bins over [Lo, Hi); out
// of range values clamp into the end bins.
type Histogram struct {
	Lo, Hi float64
	Counts []int64
	total  int64
}

// NewHistogram creates a histogram with `bins` uniform bins on
// [lo, hi). It panics on a non-positive bin count or an empty range —
// both are programming errors in the harness.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 || hi <= lo {
		panic(fmt.Sprintf("stats: invalid histogram [%v,%v) bins=%d", lo, hi, bins))
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int64, bins)}
}

// Add counts one observation.
func (h *Histogram) Add(x float64) {
	i := int(float64(len(h.Counts)) * (x - h.Lo) / (h.Hi - h.Lo))
	if i < 0 {
		i = 0
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
	h.total++
}

// Fraction returns the share of observations in bin i.
func (h *Histogram) Fraction(i int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.total)
}

// BinLabel renders bin i's range like "95-96".
func (h *Histogram) BinLabel(i int) string {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return fmt.Sprintf("%g-%g", h.Lo+float64(i)*w, h.Lo+float64(i+1)*w)
}

// Render draws the histogram as rows of "label count bar".
func (h *Histogram) Render(barWidth int) string {
	var b strings.Builder
	maxC := int64(1)
	for _, c := range h.Counts {
		if c > maxC {
			maxC = c
		}
	}
	for i, c := range h.Counts {
		bar := strings.Repeat("#", int(int64(barWidth)*c/maxC))
		fmt.Fprintf(&b, "%10s %9d %6.2f%% %s\n", h.BinLabel(i), c, 100*h.Fraction(i), bar)
	}
	return b.String()
}

// QuantileFromBuckets estimates the q-quantile (0 ≤ q ≤ 1) of
// bucketed observations: uppers holds strictly increasing finite
// upper bounds, and counts holds len(uppers)+1 per-bucket counts, the
// last being the overflow bucket for values above the largest bound.
// The estimate interpolates linearly inside the bucket containing the
// target rank (a bucket's lower edge is the previous upper bound, or
// 0 for the first — the latency-histogram convention); ranks landing
// in the overflow bucket clamp to the largest finite bound. Returns 0
// when there are no observations.
func QuantileFromBuckets(uppers []float64, counts []int64, q float64) float64 {
	if len(uppers) == 0 || len(counts) != len(uppers)+1 {
		panic(fmt.Sprintf("stats: quantile needs len(counts)=len(uppers)+1, got %d and %d", len(counts), len(uppers)))
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		cum += c
		if float64(cum) >= rank && c > 0 {
			if i == len(uppers) {
				return uppers[len(uppers)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = uppers[i-1]
			}
			frac := (rank - float64(cum-c)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lo + (uppers[i]-lo)*frac
		}
	}
	return uppers[len(uppers)-1]
}

// Table renders fixed-width text tables.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; cells render with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
