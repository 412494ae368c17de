// Package mpi provides a simulated distributed-memory runtime.
//
// The paper's implementation runs p MPI processes on a cluster wired
// with 10 Gbps Ethernet. This package substitutes a step-synchronous
// simulator: each "rank" executes its share of every SPMD step as a
// plain function, per-rank compute is measured with wall clocks while
// ranks run with bounded physical parallelism, and the simulated time
// of a step is the maximum over ranks (the barrier semantics of a
// bulk-synchronous program). Communication steps are not executed over
// a network; their cost is charged by an α–β model,
//
//	T_comm = τ·⌈log₂ p⌉ + μ·bytes,
//
// the same O(τ log p + μ·nT) form the paper's complexity analysis uses
// for MPI_Allgatherv. This preserves the strong-scaling shape (compute
// shrinks with p, communication grows) without needing a cluster.
package mpi

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"
)

// CostModel parameterizes the α–β communication model.
type CostModel struct {
	// Latency τ is the per-message network latency.
	Latency time.Duration
	// SecPerByte μ is the reciprocal bandwidth.
	SecPerByte float64
}

// Ethernet10G is the cluster interconnect of the paper's test
// platform: 10 Gbps links and ~50 µs MPI latency.
func Ethernet10G() CostModel {
	return CostModel{Latency: 50 * time.Microsecond, SecPerByte: 8.0 / 10e9}
}

// AllgatherCost returns the modeled duration of an allgather in which
// every rank ends up holding `bytes` total payload.
func (m CostModel) AllgatherCost(p int, bytes int64) time.Duration {
	if p <= 1 {
		return 0
	}
	rounds := int(math.Ceil(math.Log2(float64(p))))
	transfer := time.Duration(float64(bytes) * m.SecPerByte * float64(time.Second))
	return time.Duration(rounds)*m.Latency + transfer
}

// StepKind distinguishes compute from communication steps.
type StepKind uint8

const (
	// Compute steps execute rank functions and take the max rank time.
	Compute StepKind = iota
	// Communication steps are charged from the cost model.
	Communication
)

// StepStat records one simulated step.
type StepStat struct {
	Name string
	Kind StepKind
	// Sim is the simulated duration of the step: max over ranks for
	// compute steps, the modeled cost for communication steps.
	Sim time.Duration
	// PerRank holds individual rank durations for compute steps.
	PerRank []time.Duration
	// Bytes is the payload size for communication steps.
	Bytes int64
}

// Timeline aggregates a run.
type Timeline struct {
	P     int
	Steps []StepStat
}

// Total returns the simulated end-to-end runtime.
func (tl Timeline) Total() time.Duration {
	var d time.Duration
	for _, s := range tl.Steps {
		d += s.Sim
	}
	return d
}

// CommTime returns the summed communication cost.
func (tl Timeline) CommTime() time.Duration {
	var d time.Duration
	for _, s := range tl.Steps {
		if s.Kind == Communication {
			d += s.Sim
		}
	}
	return d
}

// CommFraction is CommTime/Total in [0,1] (0 for an empty timeline).
func (tl Timeline) CommFraction() float64 {
	t := tl.Total()
	if t == 0 {
		return 0
	}
	return float64(tl.CommTime()) / float64(t)
}

// Step looks up a step by name (nil when absent).
func (tl Timeline) Step(name string) *StepStat {
	for i := range tl.Steps {
		if tl.Steps[i].Name == name {
			return &tl.Steps[i]
		}
	}
	return nil
}

func (tl Timeline) String() string {
	s := fmt.Sprintf("p=%d total=%v comm=%.1f%%", tl.P, tl.Total().Round(time.Millisecond), 100*tl.CommFraction())
	for _, st := range tl.Steps {
		s += fmt.Sprintf(" | %s=%v", st.Name, st.Sim.Round(time.Millisecond))
	}
	return s
}

// Sim is a step-synchronous simulator of p ranks.
type Sim struct {
	p        int
	model    CostModel
	maxProcs int
	steps    []StepStat
}

// New creates a simulator of p ranks. maxParallel bounds how many rank
// functions execute concurrently (≤0 means GOMAXPROCS); lower values
// give cleaner per-rank timings at the cost of wall time.
func New(p int, model CostModel, maxParallel int) *Sim {
	if p <= 0 {
		panic(fmt.Sprintf("mpi: p=%d must be positive", p))
	}
	if maxParallel <= 0 {
		maxParallel = runtime.GOMAXPROCS(0)
	}
	return &Sim{p: p, model: model, maxProcs: maxParallel}
}

// Step runs fn for every rank (bounded concurrency), records per-rank
// wall times, and charges the maximum as the step's simulated time.
func (s *Sim) Step(name string, fn func(rank int)) StepStat {
	durations := make([]time.Duration, s.p)
	sem := make(chan struct{}, s.maxProcs)
	var wg sync.WaitGroup
	for r := 0; r < s.p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			start := time.Now()
			fn(rank)
			durations[rank] = time.Since(start)
		}(r)
	}
	wg.Wait()
	max := time.Duration(0)
	for _, d := range durations {
		if d > max {
			max = d
		}
	}
	st := StepStat{Name: name, Kind: Compute, Sim: max, PerRank: durations}
	s.steps = append(s.steps, st)
	return st
}

// SequentialStep runs fn once (e.g. a shared decode executed once in
// the simulation but logically done by every rank) and charges its
// wall time as the per-rank time of all ranks.
func (s *Sim) SequentialStep(name string, fn func()) StepStat {
	start := time.Now()
	fn()
	d := time.Since(start)
	per := make([]time.Duration, s.p)
	for i := range per {
		per[i] = d
	}
	st := StepStat{Name: name, Kind: Compute, Sim: d, PerRank: per}
	s.steps = append(s.steps, st)
	return st
}

// Allgather charges the modeled cost of an allgather whose aggregate
// payload (the union every rank ends up holding) is `bytes`.
func (s *Sim) Allgather(name string, bytes int64) StepStat {
	st := StepStat{
		Name:  name,
		Kind:  Communication,
		Sim:   s.model.AllgatherCost(s.p, bytes),
		Bytes: bytes,
	}
	s.steps = append(s.steps, st)
	return st
}

// Timeline returns the recorded steps.
func (s *Sim) Timeline() Timeline {
	return Timeline{P: s.p, Steps: append([]StepStat(nil), s.steps...)}
}
