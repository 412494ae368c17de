package jem

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// shardWork sums idle sessions' per-shard work for a trace: nil on a
// one-shard mapper and before any query.
func shardWork(sessions []*core.Session) []core.ShardWork {
	var sum []core.ShardWork
	for _, s := range sessions {
		sw := s.ShardWork() // a fresh snapshot, nil or one entry per shard
		if len(sw) > len(sum) {
			sum, sw = sw, sum
		}
		for i, w := range sw {
			sum[i].Postings += w.Postings
			sum[i].Wall += w.Wall
		}
	}
	return sum
}

// attachStreamSpans turns one finished run's phase accumulators into
// children of the request span: read/sketch/gather/write phase spans,
// per-shard children under gather (sharded index only), and run stats
// as attributes. Phases overlap in wall time (the stream is
// pipelined), so these children measure work inside each phase, not a
// partition of the request's elapsed time; sketch is worker time not
// attributed to shard scans.
func attachStreamSpans(sp *obs.Span, st Stats, shards []core.ShardWork) {
	sp.AddTimed("read", st.ReadWall)
	var gather time.Duration
	for _, w := range shards {
		gather += w.Wall
	}
	sketch := st.MapWall - gather
	if sketch < 0 {
		sketch = 0
	}
	sp.AddTimed("sketch", sketch)
	if len(shards) > 0 {
		g := sp.AddTimed("gather", gather)
		g.SetAttr("shards", len(shards))
		for i, w := range shards {
			c := g.AddTimed(fmt.Sprintf("shard%02d", i), w.Wall)
			c.SetAttr("postings", w.Postings)
		}
	}
	sp.AddTimed("write", st.WriteWall)
	sp.SetAttr("reads", st.Reads)
	sp.SetAttr("segments", st.Segments)
	sp.SetAttr("mapped", st.Mapped)
	sp.SetAttr("postings", st.PostingsScanned)
	if st.BadRecords > 0 {
		sp.SetAttr("bad_records", st.BadRecords)
	}
	if st.WorkerPanics > 0 {
		sp.SetAttr("worker_panics", st.WorkerPanics)
	}
}
