package jem

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// mapperMetrics bundles every instrument a facade Mapper owns: the
// core serving counters (installed via core.EnableMetrics) plus the
// streaming-pipeline counters and phase-wall gauges MapStream drives.
// The registry these live in is the fleet-wide source of truth; each
// Map/Stream invocation additionally carries its own runStats so
// concurrent runs on one Mapper report correct per-run Stats (see
// newRun).
type mapperMetrics struct {
	core *core.Metrics

	reads    *obs.Counter // records pulled from the input stream
	segments *obs.Counter // end segments drained by the stream writer
	mapped   *obs.Counter // drained segments that hit a contig

	badRecords  *obs.Counter // malformed/over-length records rejected by the reader
	quarantined *obs.Counter // bad records written to the quarantine sidecar
	panics      *obs.Counter // worker panics recovered into batch errors

	readWall  *obs.Wall // cumulative wall time parsing input records
	mapWall   *obs.Wall // cumulative worker wall time sketching+mapping
	writeWall *obs.Wall // cumulative wall time formatting+writing rows
}

func newMapperMetrics(reg *obs.Registry, cm *core.Mapper) *mapperMetrics {
	return &mapperMetrics{
		core:     cm.EnableMetrics(reg),
		reads:    reg.Counter("jem_stream_reads_total", "records pulled from the input stream"),
		segments: reg.Counter("jem_stream_segments_total", "end segments drained by the stream writer"),
		mapped:   reg.Counter("jem_stream_segments_mapped_total", "drained segments that hit a contig"),
		badRecords: reg.Counter("jem_stream_bad_records_total",
			"malformed or over-length records rejected by the stream reader"),
		quarantined: reg.Counter("jem_stream_quarantined_total",
			"bad records written to the quarantine sidecar"),
		panics: reg.Counter("jem_stream_worker_panics_total",
			"worker panics recovered into per-batch errors"),
		readWall: reg.Wall("jem_stream_read_wall_seconds",
			"cumulative wall time cutting FASTA/FASTQ input into record-aligned batches"),
		mapWall: reg.Wall("jem_stream_map_wall_seconds",
			"cumulative worker wall time sketching and mapping"),
		writeWall: reg.Wall("jem_stream_write_wall_seconds",
			"cumulative wall time formatting and writing rows"),
	}
}

// runScope is one Map/Stream invocation's stats scope: every pipeline
// event is recorded twice, into the mapper's registry instruments
// (fleet-wide, shared by every concurrent run) and into this run's own
// delta accumulators. Per-run Stats are read from the accumulators, so
// N overlapping runs each report exactly their own work while the
// registry still shows the aggregate — the two views sum consistently
// by construction.
//
// Before runScope existed, Stats was derived by diffing registry
// snapshots taken at the start and end of a run; any concurrent
// traffic on the same Mapper (a second Stream, a Map batch) landed in
// between and was misattributed to whichever run read its snapshot
// later. A long-lived server doing concurrent mapping sessions is
// exactly that workload.
//
// All fields are atomics: the reader goroutine, the worker pool and
// the writer each feed different fields, and wall totals from several
// workers land on mapWallNS concurrently.
type runScope struct {
	mm *mapperMetrics

	reads, segments, mapped         atomic.Int64
	badRecords, quarantined, panics atomic.Int64
	postings                        atomic.Int64

	// Wall totals in integer nanoseconds — same representation as the
	// registry's obs.Wall gauges, so per-run and fleet-wide wall time
	// never disagree by float rounding.
	readWallNS, mapWallNS, writeWallNS atomic.Int64

	// lost is the union of shard ids lost by this run's worker
	// sessions (remote serving only; see Stats.ShardsLost). Guarded by
	// lostMu: workers merge their sessions' lost sets as they exit.
	lostMu sync.Mutex
	lost   map[int]struct{}
}

// newRun opens a fresh per-run scope over the mapper's instruments.
func (mm *mapperMetrics) newRun() *runScope { return &runScope{mm: mm} }

func (rs *runScope) incRead() {
	rs.mm.reads.Inc()
	rs.reads.Add(1)
}

func (rs *runScope) incBadRecord() {
	rs.mm.badRecords.Inc()
	rs.badRecords.Add(1)
}

func (rs *runScope) incQuarantined() {
	rs.mm.quarantined.Inc()
	rs.quarantined.Add(1)
}

func (rs *runScope) incPanic() {
	rs.mm.panics.Inc()
	rs.panics.Add(1)
}

// addDrained accounts one drained batch: segments written (or
// accounted after a write error) and how many of them hit a contig.
func (rs *runScope) addDrained(segments, mapped int64) {
	rs.mm.segments.Add(segments)
	rs.mm.mapped.Add(mapped)
	rs.segments.Add(segments)
	rs.mapped.Add(mapped)
}

// addPostings attributes one worker session's posting scans to this
// run. The registry's core counter already received them per segment
// (the session's instrumented lookups), so only the run accumulator
// moves here.
func (rs *runScope) addPostings(n int64) { rs.postings.Add(n) }

// addLostShards merges one worker session's lost-shard ids into the
// run's degraded-answer record. The coordinator's registry counter
// (jem_shardnet_shards_lost_total) already counted each loss; this is
// the per-run view that becomes Stats.ShardsLost.
func (rs *runScope) addLostShards(ids []int) {
	if len(ids) == 0 {
		return
	}
	rs.lostMu.Lock()
	defer rs.lostMu.Unlock()
	if rs.lost == nil {
		rs.lost = make(map[int]struct{}, len(ids))
	}
	for _, sd := range ids {
		rs.lost[sd] = struct{}{}
	}
}

func (rs *runScope) addReadWall(d time.Duration) {
	rs.mm.readWall.Add(d)
	rs.readWallNS.Add(int64(d))
}

func (rs *runScope) addMapWall(d time.Duration) {
	rs.mm.mapWall.Add(d)
	rs.mapWallNS.Add(int64(d))
}

func (rs *runScope) addWriteWall(d time.Duration) {
	rs.mm.writeWall.Add(d)
	rs.writeWallNS.Add(int64(d))
}

// stats renders the run's accumulators as the Stats returned to the
// caller. Safe to call once the pipeline has drained (the stream's
// goroutines have all exited by then, so the loads observe every
// update).
func (rs *runScope) stats() Stats {
	var lost []int
	rs.lostMu.Lock()
	if len(rs.lost) > 0 {
		lost = make([]int, 0, len(rs.lost))
		for sd := range rs.lost {
			lost = append(lost, sd)
		}
		sort.Ints(lost)
	}
	rs.lostMu.Unlock()
	return Stats{
		ShardsLost:      lost,
		Reads:           int(rs.reads.Load()),
		Segments:        int(rs.segments.Load()),
		Mapped:          int(rs.mapped.Load()),
		BadRecords:      int(rs.badRecords.Load()),
		Quarantined:     int(rs.quarantined.Load()),
		WorkerPanics:    int(rs.panics.Load()),
		PostingsScanned: rs.postings.Load(),
		ReadWall:        time.Duration(rs.readWallNS.Load()),
		MapWall:         time.Duration(rs.mapWallNS.Load()),
		WriteWall:       time.Duration(rs.writeWallNS.Load()),
	}
}

// Metrics returns the mapper's observability registry: the core
// serving counters and lookup-latency histogram, the streaming
// pipeline counters, and the phase tracer (index build/freeze,
// save/load spans). Serve it live with obs.Serve (jem-mapper
// -metrics-addr) or render it with WritePrometheus/WriteTable.
func (m *Mapper) Metrics() *obs.Registry { return m.reg }
