// Package jem is the public API of this repository: a Go
// implementation of JEM-mapper, the parallel sketch-based algorithm
// for mapping long reads to contigs from Rahman, Bhowmik and
// Kalyanaraman (IPDPSW 2023).
//
// The mapper answers the L2C problem: given a set of long reads
// (queries) and a set of contigs (subjects), report for each end
// segment of each read the best-matching contig, using a
// minimizer-based Jaccard estimator (JEM) sketch instead of
// alignment. Typical use:
//
//	contigs, _ := jem.ReadSequences("contigs.fasta")
//	reads, _ := jem.ReadSequences("reads.fastq")
//	mapper, _ := jem.NewMapper(contigs, jem.DefaultOptions())
//	mappings, _ := mapper.Map(context.Background(), reads, jem.MapOptions{})
//
// Sub-APIs expose the rest of the reproduced system: dataset
// synthesis (Synthesize), the distributed-memory simulation
// (MapDistributed), baselines (NewMashmapMapper, NewMinHashMapper),
// benchmark evaluation (BuildBenchmark, Evaluate) and scaffolding
// (BuildScaffolds).
package jem

import (
	"context"
	"io"
	"strconv"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/seq"
	"repro/internal/sketch"
)

// Record is a named DNA sequence (FASTA/FASTQ record).
type Record = seq.Record

// ReadSequences loads all records from a FASTA or FASTQ file.
func ReadSequences(path string) ([]Record, error) { return seq.ReadFile(path) }

// WriteFASTQ writes records to a FASTQ file.
func WriteFASTQ(path string, records []Record) error { return seq.WriteFASTQFile(path, records) }

// Options configures a Mapper. The zero value is not valid; start
// from DefaultOptions.
type Options struct {
	// K is the k-mer size (paper default 16).
	K int
	// W is the minimizer window size in k-mers (paper default 100).
	W int
	// Trials is the number of random sketch trials T (paper default 30).
	Trials int
	// SegmentLen is the end-segment and interval length ℓ in bases
	// (paper default 1000).
	SegmentLen int
	// Seed drives the random hash family; mapper and queries must use
	// the same seed (they do — queries are sketched by the mapper).
	Seed int64
	// Workers bounds goroutine parallelism; 0 means GOMAXPROCS.
	Workers int
	// Shards selects the serving backend: values > 1 partition the
	// frozen sketch index into that many independent shards (a
	// deterministic hash of ⟨trial, word⟩ routes each posting list to
	// exactly one shard), built concurrently and queried scatter-gather.
	// Mapping results are byte-identical to the unsharded backend for
	// any shard count; sharding parallelizes index build, save and
	// load, and bounds per-shard memory. 0 and 1 mean unsharded.
	Shards int
	// Memory selects how an index loaded through Open(IndexPath) is
	// held: fully decoded on the heap or served zero-copy from a shared
	// read-only file mapping; either way every shard is verified at
	// open. It only affects index loads — a build from contigs is
	// always heap-resident. JEMIDX06 is the only index format; a file
	// with an older magic (JEMIDX02–05) is refused by name and must be
	// rebuilt. See docs/MEMORY.md.
	Memory Memory
	// Metrics, when non-nil, is the observability registry the mapper
	// records into (counters, wall gauges, phase spans — see
	// docs/OBSERVABILITY.md). When nil the mapper creates a private
	// registry; either way Mapper.Metrics exposes it. Supplying one
	// lets a caller serve the registry (obs.Serve) before the mapper
	// exists and share it across mappers.
	Metrics *obs.Registry
}

// DefaultOptions returns the paper's software configuration:
// k=16, w=100, T=30, ℓ=1000.
func DefaultOptions() Options {
	return Options{K: 16, W: 100, Trials: 30, SegmentLen: 1000, Seed: 1}
}

func (o Options) params() sketch.Params {
	return sketch.Params{K: o.K, W: o.W, T: o.Trials, L: o.SegmentLen, Seed: o.Seed}
}

// SegmentEnd says which end of a read a mapping concerns.
type SegmentEnd string

const (
	// PrefixEnd is the first SegmentLen bases of a read.
	PrefixEnd SegmentEnd = "prefix"
	// SuffixEnd is the last SegmentLen bases of a read.
	SuffixEnd SegmentEnd = "suffix"
)

// Mapping is one end-segment → contig result.
type Mapping struct {
	ReadIndex int        // index into the reads slice passed to MapReads
	ReadID    string     // read record ID
	End       SegmentEnd // which end segment
	Mapped    bool       // false when no contig was hit
	Contig    int        // contig index (valid when Mapped)
	ContigID  string     // contig record ID (valid when Mapped)
	// SharedTrials is the number of sketch trials in which the query
	// collided with the reported contig (the best-hit frequency).
	SharedTrials int
}

// Mapper maps long-read end segments to an indexed contig set.
type Mapper struct {
	opts    Options
	core    *core.Mapper
	contigs []Record
	reg     *obs.Registry
	met     *mapperMetrics
	// closer releases the serving backend's external resources: the
	// shardnet coordinator's connection pools for a fleet-backed
	// mapper, the index file mapping for an mmap-served one; nil when
	// the mapper holds neither.
	closer io.Closer
}

// Close releases resources held by the mapper's serving backend: a
// remote mapper's coordinator connection pools, or an mmap-served
// index's file mapping. It is a no-op returning nil for heap-resident
// local mappers. The mapper must not be queried after Close.
func (m *Mapper) Close() error {
	if m.closer != nil {
		return m.closer.Close()
	}
	return nil
}

// NewMapper indexes contigs with the JEM sketch. The contig slice is
// retained for ID lookup; sequences themselves are not kept beyond
// sketching (they alias the caller's records).
//
// The finished index is sealed: the sketch records are sorted into the
// flat sorted-array table — partitioned into opts.Shards independent
// shards when opts.Shards > 1 — and every query is served from it (the
// same bytes an index file holds, the same build the distributed gather
// step runs). A facade mapper therefore never gains contigs after
// construction.
func NewMapper(contigs []Record, opts Options) (*Mapper, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	cm, err := core.NewMapper(opts.params())
	if err != nil {
		return nil, err
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	// Phase spans: index build = sketch the subjects, then freeze the
	// records into the serving table; a sharded freeze gets one child
	// span per shard's lay-out (the routing and sorting before it run
	// trial by trial, under the parent; shards lay out on concurrent
	// workers, so the spans overlap).
	sp := reg.Tracer().Start("index.build")
	sp.Time("sketch", func() { cm.AddSubjectsParallel(contigs, opts.Workers) })
	if opts.Shards > 1 {
		fz := sp.Child("freeze")
		cm.SealShardedTraced(opts.Shards, opts.Workers, func(shard int, fn func()) {
			fz.Time("shard"+strconv.Itoa(shard), fn)
		})
		fz.End()
	} else {
		sp.Time("freeze", func() { cm.Seal() })
	}
	sp.End()
	return &Mapper{opts: opts, core: cm, contigs: contigs, reg: reg, met: newMapperMetrics(reg, cm.Shards())}, nil
}

// Shards returns the number of serving shards of the underlying
// sketch index: Options.Shards for a sharded build, the on-disk shard
// count for a loaded index, 1 for an unsharded build.
func (m *Mapper) Shards() int { return m.core.Shards() }

// Options returns the mapper's configuration.
func (m *Mapper) Options() Options { return m.opts }

// IndexBytes returns the approximate total size of the sealed sketch
// index in bytes (the frozen table's backing arrays; struct headers
// and allocator slack are not charged), counting resident and mapped
// bytes alike — IndexMemory splits them. A serving tier holding
// several reference indexes open at once uses this for per-index
// memory accounting (GET /v1/indexes in jem-serve).
func (m *Mapper) IndexBytes() int64 { return m.core.IndexBytes() }

// NumContigs returns the number of indexed contigs.
func (m *Mapper) NumContigs() int { return m.core.NumSubjects() }

// MapOptions carries the per-call knobs of Mapper.Map. The zero value
// maps with the mapper's construction-time settings.
type MapOptions struct {
	// Workers overrides the mapper's Workers setting for this call;
	// 0 keeps it.
	Workers int
}

// validate mirrors Options.Validate for the per-call knobs.
func (o MapOptions) validate() error {
	if o.Workers < 0 {
		return optErr("Workers", o.Workers, "must be ≥ 0 (0 means the mapper's Workers setting)")
	}
	return nil
}

// Map is the canonical batch entry point: it maps both end segments of
// every read, in parallel, and returns mappings in deterministic
// (read, end) order. Every segment produces a Mapping; unmapped
// segments have Mapped=false.
//
// When ctx is cancelled the workers stop early and the call returns
// the mappings of every read completed so far together with ctx.Err();
// a nil error means the full read set was mapped.
func (m *Mapper) Map(ctx context.Context, reads []Record, opts MapOptions) ([]Mapping, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers == 0 {
		workers = m.opts.Workers
	}
	if sp := obs.SpanFromContext(ctx); sp != nil {
		c := sp.Child("map")
		c.SetAttr("reads", len(reads))
		defer c.End()
	}
	rows, sessions, err := core.MapEnds(ctx, reads, m.opts.SegmentLen, workers, m.session(ctx), m.mapEnd)
	m.publishSessions(sessions...)
	return rows, err
}

// session is the per-worker session constructor of the facade's
// read-set paths: sessions inherit ctx, so remote shard queries honour
// its deadline.
func (m *Mapper) session(ctx context.Context) func() *core.Session {
	return func() *core.Session { return m.core.NewSession().WithContext(ctx) }
}

// mapEnd maps one end segment to its Mapping — the row of Map and of
// Stream's batches.
func (m *Mapper) mapEnd(sess *core.Session, e core.End) Mapping {
	return toMapping(sess.MapEnd(e), e.ID, m.contigName)
}

func (m *Mapper) contigName(id int32) string { return m.core.Subject(id).Name }

// toMapping is the one core.Result → Mapping conversion; name resolves
// a contig id to its record ID.
func toMapping(r core.Result, readID string, name func(int32) string) Mapping {
	mp := Mapping{ReadIndex: int(r.ReadIndex), ReadID: readID, End: PrefixEnd}
	if r.Kind == core.Suffix {
		mp.End = SuffixEnd
	}
	if r.Mapped() {
		mp.Mapped, mp.Contig, mp.ContigID, mp.SharedTrials = true, int(r.Subject), name(r.Subject), int(r.Count)
	}
	return mp
}

// toMappings converts the rows of a read set mapped elsewhere (a
// baseline, the simulated ranks) whose contig ids index contigs.
func toMappings(results []core.Result, reads, contigs []Record) []Mapping {
	name := func(id int32) string { return contigs[id].ID }
	out := make([]Mapping, len(results))
	for i, r := range results {
		out[i] = toMapping(r, reads[r.ReadIndex].ID, name)
	}
	return out
}

// ErrIndexChecksum marks an index file whose contents no longer match
// the checksum it was written with — on-disk corruption. Detect it
// with errors.Is and rebuild the index from the contigs.
var ErrIndexChecksum = core.ErrIndexChecksum

// SaveIndexFile writes the index to path atomically (temp file in the
// same directory + rename), so an interrupted save can never leave a
// partial index behind.
func (m *Mapper) SaveIndexFile(path string) error {
	sp := m.reg.Tracer().Start("index.write")
	defer sp.End()
	return m.core.WriteIndexFile(path)
}

// TiledMapping is one interior-tile hit of MapReadTiled.
type TiledMapping struct {
	// Offset and Length locate the tile on the read.
	Offset, Length int
	Contig         int
	ContigID       string
	SharedTrials   int
}

// MapReadTiled maps consecutive SegmentLen-length tiles across the
// whole read (stride ≤ 0 means SegmentLen, i.e. non-overlapping tiles)
// — the extension the paper flags for detecting contigs contained in a
// read's interior, which end-segment mapping cannot see. Unmapped tiles
// are omitted. It runs under Map's contract: on cancellation the tiles
// mapped so far come back with ctx.Err().
func (m *Mapper) MapReadTiled(ctx context.Context, read []byte, stride int) ([]TiledMapping, error) {
	sess := m.core.NewSession().WithContext(ctx)
	defer m.publishSessions(sess)
	tiles := sess.MapReadTiled(read, m.opts.SegmentLen, stride)
	out := make([]TiledMapping, len(tiles))
	for i, th := range tiles {
		out[i] = TiledMapping{
			Offset:       int(th.Offset),
			Length:       int(th.Length),
			Contig:       int(th.Subject),
			ContigID:     m.core.Subject(th.Subject).Name,
			SharedTrials: int(th.Count),
		}
	}
	return out, ctx.Err()
}

// ContainedContigs returns the distinct contigs hit by the read's
// interior tiles (excluding the two end tiles) — candidates for
// contigs wholly contained in the read. It runs under MapReadTiled's
// contract.
func (m *Mapper) ContainedContigs(ctx context.Context, read []byte) ([]int, error) {
	sess := m.core.NewSession().WithContext(ctx)
	defer m.publishSessions(sess)
	ids := sess.ContainedSubjects(read, m.opts.SegmentLen)
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = int(id)
	}
	return out, ctx.Err()
}

// tsvHeader is the first line of every TSV mapping table.
const tsvHeader = "read_id\tend\tcontig_id\tshared_trials\n"

// appendTSVRow renders one mapping as a TSV row into b — the
// allocation-free formatter shared by WriteTSV and the Stream
// writer hot loop (fmt.Fprintf there cost ~2 allocations per row).
//
//jem:hotpath
func appendTSVRow(b []byte, m *Mapping) []byte {
	b = append(b, m.ReadID...)
	b = append(b, '\t')
	b = append(b, string(m.End)...)
	b = append(b, '\t')
	if m.Mapped {
		b = append(b, m.ContigID...)
		b = append(b, '\t')
		b = strconv.AppendInt(b, int64(m.SharedTrials), 10)
	} else {
		b = append(b, '*', '\t', '0')
	}
	return append(b, '\n')
}

// WriteTSV writes mappings as a tab-separated table with a header:
// read_id, end, contig_id, shared_trials ("*" marks unmapped rows).
func WriteTSV(w io.Writer, mappings []Mapping) error {
	if _, err := io.WriteString(w, tsvHeader); err != nil {
		return err
	}
	buf := make([]byte, 0, 128)
	for i := range mappings {
		buf = appendTSVRow(buf[:0], &mappings[i])
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}
