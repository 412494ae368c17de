package core

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// Metrics bundles the serving instruments a Mapper updates on every
// session query: how many segments were looked up, how many hit a
// subject, how much posting-scan work the lookups did, and the
// per-segment lookup-latency distribution.
type Metrics struct {
	// Segments counts end segments queried (MapSegment and variants).
	Segments *obs.Counter
	// Hits and Misses split Segments by whether a subject was found.
	Hits, Misses *obs.Counter
	// Postings counts sketch-table postings examined — the dominant
	// unit of query work (§III-C's lazy-counter scan).
	Postings *obs.Counter
	// Lookup is the per-segment lookup latency in seconds.
	Lookup *obs.Histogram
	// ShardPostings, present only on a mapper with several shards,
	// splits Postings by serving shard (index = shard id); it exposes
	// routing skew.
	ShardPostings []*obs.Counter
	// reg is retained so per-shard counters can be registered when the
	// sealed table is installed after EnableMetrics (the build path:
	// the facade enables metrics before sealing).
	reg *obs.Registry
}

// EnableMetrics registers the mapper's serving instruments on reg and
// turns on per-query instrumentation for every session created
// afterwards. Call it before issuing sessions (the facade does this
// at construction); sessions capture the instrument set when they are
// created. Registration is idempotent per registry, so several
// mappers may share one registry and their counts aggregate.
func (m *Mapper) EnableMetrics(reg *obs.Registry) *Metrics {
	met := &Metrics{
		Segments: reg.Counter("jem_core_segments_total", "end segments queried"),
		Hits:     reg.Counter("jem_core_segments_mapped_total", "queried segments that hit a contig"),
		Misses:   reg.Counter("jem_core_segments_unmapped_total", "queried segments with no hit"),
		Postings: reg.Counter("jem_core_postings_scanned_total", "sketch-table postings examined by lookups"),
		Lookup:   reg.Histogram("jem_core_lookup_seconds", "per-segment lookup latency", obs.LatencyBuckets()),
		reg:      reg,
	}
	m.met = met
	m.enableShardMetrics()
	return met
}

// enableShardMetrics registers the per-shard postings counters once
// both a metrics registry and a serving path split over several shards
// — a local sharded table or a remote backend — are present. It runs
// from EnableMetrics (load path: table installed first) and from
// SealSharded/SetRemote (build path: registry installed
// first), and always before sessions exist, so sessions see a
// complete slice. A one-shard mapper registers none: its only shard's
// count is the Postings counter.
func (m *Mapper) enableShardMetrics() {
	if m.met == nil || m.met.reg == nil {
		return
	}
	p := m.Shards()
	if p < 2 || len(m.met.ShardPostings) == p {
		return
	}
	cs := make([]*obs.Counter, p)
	for i := range cs {
		cs[i] = m.met.reg.Counter(
			fmt.Sprintf("jem_core_shard%d_postings_scanned_total", i),
			fmt.Sprintf("sketch-table postings examined in shard %d", i))
	}
	m.met.ShardPostings = cs
}

// Metrics returns the instrument set installed by EnableMetrics, nil
// when metrics are disabled.
func (m *Mapper) Metrics() *Metrics { return m.met }

// observe folds one finished segment lookup into the instruments:
// a handful of atomic ops, cheap next to the lookup itself.
func (met *Metrics) observe(elapsed time.Duration, postings int64, hit bool) {
	met.Segments.Inc()
	if hit {
		met.Hits.Inc()
	} else {
		met.Misses.Inc()
	}
	met.Postings.Add(postings)
	met.Lookup.Observe(elapsed.Seconds())
}

// observeShard attributes one query's postings from one shard to that
// shard's counter (a no-op on a one-shard mapper, which has none).
func (met *Metrics) observeShard(shard int, postings int64) {
	if shard < len(met.ShardPostings) {
		met.ShardPostings[shard].Add(postings)
	}
}
