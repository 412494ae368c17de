// Package parallel provides the small shared-memory parallelism
// helpers used across the repository: a bounded parallel-for over an
// index range and a worker-state variant for loops that need per-
// goroutine scratch (sessions, buffers).
package parallel

import (
	"runtime"
	"sync"
)

// Workers normalizes a worker-count argument: values ≤ 0 become
// GOMAXPROCS.
func Workers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// ForEach calls fn(i) for every i in [0,n) using at most `workers`
// goroutines. Iterations are distributed dynamically, so uneven work
// per item balances automatically.
func ForEach(n, workers int, fn func(i int)) {
	ForEachWorker(n, workers, func() struct{} { return struct{}{} }, func(_ struct{}, i int) { fn(i) })
}

// ForEachWorker is ForEach with per-goroutine state: setup runs once
// per worker — on the calling goroutine, before any fn call, at least
// once even for n = 0, so a setup that panics on misuse panics there —
// and its result is passed to every fn call that worker executes. The
// states come back once every call has returned.
func ForEachWorker[S any](n, workers int, setup func() S, fn func(state S, i int)) []S {
	workers = min(Workers(workers), max(n, 1))
	states := make([]S, workers)
	for w := range states {
		states[w] = setup()
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(states[0], i)
		}
		return states
	}
	idx := make(chan int, 4*workers)
	var wg sync.WaitGroup
	for _, s := range states {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(s, i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return states
}
