package jem

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/obs"
)

// mapperMetrics bundles every instrument a facade Mapper owns: the
// streaming-pipeline counters and phase-wall gauges, and the postings
// counters every query path feeds. The registry these live in is the
// fleet-wide view; publish is the only writer.
type mapperMetrics struct {
	reads    *obs.Counter // records pulled from the input stream
	segments *obs.Counter // end segments drained by the stream writer
	mapped   *obs.Counter // drained segments that hit a contig

	badRecords  *obs.Counter // malformed/over-length records rejected by the reader
	quarantined *obs.Counter // bad records written to the quarantine sidecar
	panics      *obs.Counter // worker panics recovered into batch errors

	// postings counts sketch-table postings examined — the dominant
	// unit of query work (§III-C's lazy-counter scan); shardPostings,
	// present only on a mapper with several shards, splits it by
	// serving shard to expose routing skew.
	postings      *obs.Counter
	shardPostings []*obs.Counter

	readWall  *obs.Wall // cumulative wall time parsing input records
	mapWall   *obs.Wall // cumulative worker wall time sketching+mapping
	writeWall *obs.Wall // cumulative wall time formatting+writing rows
}

// newMapperMetrics registers the instruments of a mapper serving from
// shards shards. Registration is idempotent per registry, so mappers
// sharing one registry aggregate.
func newMapperMetrics(reg *obs.Registry, shards int) *mapperMetrics {
	mm := &mapperMetrics{
		reads:    reg.Counter("jem_stream_reads_total", "records pulled from the input stream"),
		segments: reg.Counter("jem_stream_segments_total", "end segments drained by the stream writer"),
		mapped:   reg.Counter("jem_stream_segments_mapped_total", "drained segments that hit a contig"),
		badRecords: reg.Counter("jem_stream_bad_records_total",
			"malformed or over-length records rejected by the stream reader"),
		quarantined: reg.Counter("jem_stream_quarantined_total",
			"bad records written to the quarantine sidecar"),
		panics: reg.Counter("jem_stream_worker_panics_total",
			"worker panics recovered into per-batch errors"),
		postings: reg.Counter("jem_core_postings_scanned_total", "sketch-table postings examined by lookups"),
		readWall: reg.Wall("jem_stream_read_wall_seconds",
			"cumulative wall time cutting FASTA/FASTQ input into record-aligned batches"),
		mapWall: reg.Wall("jem_stream_map_wall_seconds",
			"cumulative worker wall time sketching and mapping"),
		writeWall: reg.Wall("jem_stream_write_wall_seconds",
			"cumulative wall time formatting and writing rows"),
	}
	for i := 0; shards > 1 && i < shards; i++ {
		mm.shardPostings = append(mm.shardPostings, reg.Counter(
			fmt.Sprintf("jem_core_shard%d_postings_scanned_total", i),
			fmt.Sprintf("sketch-table postings examined in shard %d", i)))
	}
	return mm
}

// publish adds d — one drained Stream batch, or what a call's sessions
// did when it returns — to the call's Stats st and to the registry,
// and the per-shard postings of sessions to the per-shard counters. It
// is the one place a run is counted: st is owned by the calling
// goroutine, so with N concurrent calls on one Mapper each call's
// Stats reports exactly its own work and the N Stats sum to the
// registry movement.
func (mm *mapperMetrics) publish(st *Stats, d Stats, sessions []*core.Session) {
	st.Reads += d.Reads
	st.Segments += d.Segments
	st.Mapped += d.Mapped
	st.BadRecords += d.BadRecords
	st.Quarantined += d.Quarantined
	st.WorkerPanics += d.WorkerPanics
	st.PostingsScanned += d.PostingsScanned
	st.ShardsLost = append(st.ShardsLost, d.ShardsLost...)
	st.ReadWall += d.ReadWall
	st.MapWall += d.MapWall
	st.WriteWall += d.WriteWall
	mm.reads.Add(int64(d.Reads))
	mm.segments.Add(int64(d.Segments))
	mm.mapped.Add(int64(d.Mapped))
	mm.badRecords.Add(int64(d.BadRecords))
	mm.quarantined.Add(int64(d.Quarantined))
	mm.panics.Add(int64(d.WorkerPanics))
	mm.postings.Add(d.PostingsScanned)
	mm.readWall.Add(d.ReadWall)
	mm.mapWall.Add(d.MapWall)
	mm.writeWall.Add(d.WriteWall)
	for i, c := range mm.shardPostings {
		for _, s := range sessions {
			c.Add(s.ShardWorkAt(i).Postings)
		}
	}
}

// publishSessions publishes the postings a finished call's sessions
// scanned, in total and per shard.
func (m *Mapper) publishSessions(sessions ...*core.Session) {
	var d Stats
	for _, s := range sessions {
		d.PostingsScanned += s.PostingsScanned()
	}
	m.met.publish(&Stats{}, d, sessions)
}

// lostShards is the sorted union of idle sessions' lost shards.
func lostShards(sessions []*core.Session) []int {
	var lost []int
	for _, s := range sessions {
		for _, sd := range s.LostShards() {
			if !slices.Contains(lost, sd) {
				lost = append(lost, sd)
			}
		}
	}
	sort.Ints(lost)
	return lost
}

// Metrics returns the mapper's observability registry: the query and
// streaming-pipeline counters, and the phase tracer (index
// build/freeze, save/load spans). Serve it live with obs.Serve
// (jem-mapper -metrics-addr) or render it with
// WritePrometheus/WriteTable.
func (m *Mapper) Metrics() *obs.Registry { return m.reg }
