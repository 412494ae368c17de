package core

import "testing"

// TestShardWorkAccounting pins the per-shard work tallies that request
// traces attribute scatter-gather time with: the per-shard postings
// counts always sum to the session total, wall time stays zero until
// EnableShardTiming opts in, and unsharded mappers report no shards.
func TestShardWorkAccounting(t *testing.T) {
	const p = 4
	mono, segs := shardedIndexMapper(t, 1)
	sharded, _ := shardedIndexMapper(t, p)

	// Unsharded mapper: no per-shard work, ever.
	ms := mono.NewSession()
	for _, seg := range segs {
		ms.MapSegment(seg)
	}
	if got := ms.ShardWork(); len(got) != 0 {
		t.Fatalf("unsharded session reports %d shards of work, want 0", len(got))
	}

	// Sharded, timing off: postings attributed per shard and summing to
	// the session total, walls all zero (the clock is never read).
	ss := sharded.NewSession()
	if got := ss.ShardWork(); len(got) != 0 {
		t.Fatalf("fresh session reports %d shards of work, want 0", len(got))
	}
	for _, seg := range segs {
		ss.MapSegment(seg)
	}
	work := ss.ShardWork()
	if len(work) != p {
		t.Fatalf("ShardWork() has %d entries, want %d", len(work), p)
	}
	var sum int64
	for i, w := range work {
		sum += w.Postings
		if w.Wall != 0 {
			t.Errorf("shard %d: wall %v without EnableShardTiming, want 0", i, w.Wall)
		}
	}
	if sum != ss.PostingsScanned() {
		t.Fatalf("per-shard postings sum %d != session total %d", sum, ss.PostingsScanned())
	}
	if sum == 0 {
		t.Fatal("no postings scanned — the fixture maps nothing, test is vacuous")
	}

	// Timing on: postings still reconcile and at least one shard
	// accumulated wall time.
	ts := sharded.NewSession()
	ts.EnableShardTiming()
	for _, seg := range segs {
		ts.MapSegment(seg)
	}
	twork := ts.ShardWork()
	sum = 0
	var wall int64
	for _, w := range twork {
		sum += w.Postings
		wall += int64(w.Wall)
	}
	if sum != ts.PostingsScanned() {
		t.Fatalf("timed per-shard postings sum %d != session total %d", sum, ts.PostingsScanned())
	}
	if wall <= 0 {
		t.Fatal("EnableShardTiming set but no shard accumulated wall time")
	}

	// The snapshot is a copy: mutating it must not corrupt the session.
	twork[0].Postings = -1
	if ts.ShardWork()[0].Postings == -1 {
		t.Fatal("ShardWork() returned the live slice, not a snapshot")
	}
}
