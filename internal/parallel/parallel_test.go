package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/fault"
)

func TestWorkers(t *testing.T) {
	if Workers(0) != runtime.GOMAXPROCS(0) || Workers(-3) != runtime.GOMAXPROCS(0) {
		t.Error("non-positive should default to GOMAXPROCS")
	}
	if Workers(7) != 7 {
		t.Error("positive passes through")
	}
}

func TestForEachCoversAllIndices(t *testing.T) {
	f := func(nRaw uint8, wRaw uint8) bool {
		n := int(nRaw) % 200
		w := int(wRaw)%8 - 2 // exercise ≤0 too
		var hits sync.Map
		var count int64
		ForEach(n, w, func(i int) {
			if _, dup := hits.LoadOrStore(i, true); dup {
				t.Errorf("index %d visited twice", i)
			}
			atomic.AddInt64(&count, 1)
		})
		return atomic.LoadInt64(&count) == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestForEachZeroItems(t *testing.T) {
	called := false
	ForEach(0, 4, func(int) { called = true })
	if called {
		t.Error("fn called for n=0")
	}
}

func TestForEachWorkerStateIsolation(t *testing.T) {
	fault.LeakCheck(t)
	type state struct {
		id    int
		items []int
	}
	var nextID int64
	var mu sync.Mutex
	var states []*state
	ForEachWorker(100, 4,
		func() *state {
			s := &state{id: int(atomic.AddInt64(&nextID, 1))}
			mu.Lock()
			states = append(states, s)
			mu.Unlock()
			return s
		},
		func(s *state, i int) {
			s.items = append(s.items, i) // no locking: state is per-worker
		})
	total := 0
	seen := map[int]bool{}
	for _, s := range states {
		total += len(s.items)
		for _, i := range s.items {
			if seen[i] {
				t.Fatalf("index %d processed twice", i)
			}
			seen[i] = true
		}
	}
	if total != 100 {
		t.Errorf("processed %d items", total)
	}
	if len(states) > 4 {
		t.Errorf("%d worker states for 4 workers", len(states))
	}
}

func TestForEachWorkerSequentialPath(t *testing.T) {
	setups := 0
	sum := 0
	ForEachWorker(10, 1,
		func() int { setups++; return 0 },
		func(_ int, i int) { sum += i })
	if setups != 1 {
		t.Errorf("sequential path ran setup %d times", setups)
	}
	if sum != 45 {
		t.Errorf("sum = %d", sum)
	}
}
