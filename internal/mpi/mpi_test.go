package mpi

import (
	"testing"
	"time"
)

func TestAllgatherCost(t *testing.T) {
	m := Ethernet10G()
	if got := m.AllgatherCost(1, 1<<30); got != 0 {
		t.Errorf("p=1 cost = %v want 0", got)
	}
	c2 := m.AllgatherCost(2, 1_000_000)
	c4 := m.AllgatherCost(4, 1_000_000)
	if c4 <= c2 {
		t.Errorf("cost should grow with p: %v vs %v", c2, c4)
	}
	// 1 MB over 10 Gbps ≈ 0.8 ms transfer + latency rounds.
	if c2 < 500*time.Microsecond || c2 > 5*time.Millisecond {
		t.Errorf("p=2 1MB cost %v implausible", c2)
	}
	big := m.AllgatherCost(8, 1<<32)
	if big < 3*time.Second {
		t.Errorf("4 GiB should take seconds, got %v", big)
	}
}

func TestSimStepTiming(t *testing.T) {
	s := New(4, Ethernet10G(), 2)
	ran := make([]bool, 4)
	st := s.Step("work", func(rank int) {
		ran[rank] = true
		time.Sleep(time.Duration(rank+1) * time.Millisecond)
	})
	for r, ok := range ran {
		if !ok {
			t.Fatalf("rank %d did not run", r)
		}
	}
	if len(st.PerRank) != 4 {
		t.Fatalf("per-rank times: %v", st.PerRank)
	}
	// Sim time = max over ranks ≥ the slowest sleep.
	if st.Sim < 4*time.Millisecond {
		t.Errorf("sim %v below slowest rank", st.Sim)
	}
	for _, d := range st.PerRank {
		if st.Sim < d {
			t.Errorf("sim %v below rank time %v", st.Sim, d)
		}
	}
}

func TestSequentialStepChargesAllRanks(t *testing.T) {
	s := New(3, Ethernet10G(), 0)
	st := s.SequentialStep("merge", func() { time.Sleep(2 * time.Millisecond) })
	if len(st.PerRank) != 3 {
		t.Fatalf("per-rank: %v", st.PerRank)
	}
	for _, d := range st.PerRank {
		if d != st.Sim {
			t.Errorf("sequential step should charge uniformly: %v vs %v", d, st.Sim)
		}
	}
}

func TestTimelineAccounting(t *testing.T) {
	s := New(2, Ethernet10G(), 0)
	s.Step("a", func(int) { time.Sleep(time.Millisecond) })
	s.Allgather("g", 10_000_000) // 10 MB ≈ 8 ms
	s.Step("b", func(int) { time.Sleep(time.Millisecond) })
	tl := s.Timeline()
	if len(tl.Steps) != 3 {
		t.Fatalf("steps = %d", len(tl.Steps))
	}
	if compute := tl.Step("a").Sim + tl.Step("b").Sim; tl.Total() != compute+tl.CommTime() {
		t.Errorf("total %v != compute %v + comm %v", tl.Total(), compute, tl.CommTime())
	}
	cf := tl.CommFraction()
	if cf <= 0 || cf >= 1 {
		t.Errorf("comm fraction %v out of (0,1)", cf)
	}
	if tl.Step("g") == nil || tl.Step("missing") != nil {
		t.Error("step lookup broken")
	}
	if tl.Step("g").Kind != Communication || tl.Step("a").Kind != Compute {
		t.Error("step kinds wrong")
	}
	if tl.String() == "" {
		t.Error("timeline render empty")
	}
}

func TestEmptyTimeline(t *testing.T) {
	tl := Timeline{}
	if tl.Total() != 0 || tl.CommFraction() != 0 {
		t.Error("empty timeline should be zero")
	}
}

func TestNewPanicsOnBadP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(0, Ethernet10G(), 0)
}

func TestStepBoundedConcurrency(t *testing.T) {
	s := New(8, Ethernet10G(), 1)
	var active, maxActive int
	s.Step("serial", func(int) {
		active++
		if active > maxActive {
			maxActive = active
		}
		time.Sleep(100 * time.Microsecond)
		active--
	})
	// With maxParallel=1 the closure runs strictly serially, so the
	// unsynchronized counters above are race-free and must never
	// exceed 1.
	if maxActive != 1 {
		t.Errorf("max concurrent ranks = %d want 1", maxActive)
	}
}
