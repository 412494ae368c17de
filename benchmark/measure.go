package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time so far. Every
// server the benchmark starts runs in this process, so the figure
// covers client and server side alike.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mallocs returns the cumulative count of heap objects allocated.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// liveHeapMB forces a collection and returns the heap still in use,
// in MB (10^6 bytes).
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / 1e6
}

// quantile returns the q-quantile (0..1) of sorted by linear
// interpolation between closest ranks; sorted must be non-empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// summary is how a sampled quantity is reported: the median, the
// quartiles, and how many samples they rest on.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// summarize computes the median and the quartiles the way Python's
// statistics.quantiles(vals, n=4) does (the "exclusive" method), which
// is what the benchmark's driver uses for run-to-run spread; a single
// value is its own quartiles.
func summarize(vals []float64) summary {
	if len(vals) == 0 {
		return summary{}
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	out := summary{N: len(s), Median: quantile(s, 0.5), Q1: s[0], Q3: s[0]}
	if len(s) < 2 {
		return out
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	out.Q1, out.Q3 = cut(1), cut(3)
	return out
}

// spread is the distance between the quartiles as a share of the
// median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// median is summarize(vals).Median.
func median(vals []float64) float64 { return summarize(vals).Median }

// percentile returns the p-th percentile (0..100) of vals.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return quantile(s, p/100)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
