// Package core implements JEM-mapper (the paper's primary
// contribution): Algorithm 2, mapping long-read end segments to
// contigs through the minimizer-based Jaccard estimator sketch of
// Algorithm 1.
//
// The flow mirrors the paper's steps: subjects (contigs) are sketched
// and inserted into a per-trial sketch table; each query (a ℓ-long end
// segment of a long read) is sketched, its T per-trial words are
// looked up, the subjects hit across trials are counted with the
// lazy-update counter array of §III-C, and the most frequent subject
// is reported as the best hit.
package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/parallel"
	"repro/internal/seq"
	"repro/internal/sketch"
)

// SegmentKind distinguishes the two end segments of a long read.
type SegmentKind uint8

const (
	// Prefix is the first ℓ bases of a read.
	Prefix SegmentKind = iota
	// Suffix is the last ℓ bases of a read.
	Suffix
)

func (k SegmentKind) String() string {
	if k == Prefix {
		return "prefix"
	}
	return "suffix"
}

// Hit is one candidate subject for a query with its trial-hit count.
type Hit struct {
	Subject int32
	Count   int32
}

// Result records the mapping of one end segment.
type Result struct {
	ReadIndex int32       // index of the read in the query set
	Kind      SegmentKind // which end
	Subject   int32       // best-hit subject id, -1 when unmapped
	Count     int32       // number of trials that hit the best subject
}

// Mapped reports whether the segment found any subject.
func (r Result) Mapped() bool { return r.Subject >= 0 }

// SubjectMeta is what the mapper retains about each subject.
type SubjectMeta struct {
	Name   string
	Length int32
}

// Mapper holds the sketch table over a subject set.
//
// NewMapper returns a builder — subjects are sketched and their records
// appended — which serves only once sealed: sealing sorts the records
// into P ≥ 1 flat shards (Seal is P = 1) and drops the builder. Every
// other way of getting a mapper returns it sealed: NewSealed over a
// table built elsewhere (the index loaders, the simulated ranks) and
// OpenRemoteFile over a shard fleet.
type Mapper struct {
	sk *sketch.Sketcher
	// build accumulates the subjects' sketch records; nil once the
	// mapper is sealed.
	build *sketch.Builder
	// sharded is the local sealed table, nil for a builder or a remote
	// mapper.
	sharded *sketch.ShardedFrozen
	// src is where sessions get posting lists from, fixed when the
	// mapper is sealed; nil for a builder.
	src      postingSource
	subjects []SubjectMeta
}

// NewMapper creates a Mapper with the given sketch parameters.
func NewMapper(p sketch.Params) (*Mapper, error) {
	sk, err := sketch.NewSketcher(p)
	if err != nil {
		return nil, err
	}
	return &Mapper{sk: sk, build: sketch.NewBuilder(p.T)}, nil
}

// Sketcher exposes the underlying sketcher (shared with baselines and
// the distributed driver).
func (m *Mapper) Sketcher() *sketch.Sketcher { return m.sk }

// Frozen exposes the table of a one-shard mapper: shard 0, nil when
// there is no sealed table or it has several shards.
func (m *Mapper) Frozen() *sketch.FrozenTable {
	if m.sharded == nil || m.sharded.NumShards() != 1 {
		return nil
	}
	return m.sharded.Shard(0)
}

// Sharded exposes the sealed serving table, nil for an unsealed or
// remote mapper.
func (m *Mapper) Sharded() *sketch.ShardedFrozen { return m.sharded }

// Shards returns the number of serving shards: P for a sealed or
// remote mapper, 0 before sealing.
func (m *Mapper) Shards() int {
	if m.src == nil {
		return 0
	}
	return m.src.numShards()
}

// IndexBytes returns the approximate total size of the serving index
// (the sealed table's backing arrays), 0 for an unsealed mapper. A
// serving tier with several indexes resident uses this for per-index
// memory accounting. The total counts resident and mapped bytes alike;
// IndexMemory splits them.
func (m *Mapper) IndexBytes() int64 {
	resident, mapped := m.IndexMemory()
	return resident + mapped
}

// IndexMemory splits IndexBytes into resident (process-private heap)
// and mapped (file-backed via mmap, shareable across processes) bytes.
// A built or heap-loaded index is all resident; an mmap-served one is
// all mapped.
func (m *Mapper) IndexMemory() (resident, mapped int64) {
	if m.sharded == nil {
		return 0, 0
	}
	return m.sharded.ResidentBytes(), m.sharded.MappedBytes()
}

// SealSharded freezes the mapper for serving: the appended records are
// sorted into `shards` flat shards with up to `workers` goroutines (≤0
// means GOMAXPROCS) and the builder is dropped, so adding subjects
// afterwards panics. Every shard count produces byte-identical query
// results; sharding parallelizes the lay-out, the index save/load, and
// bounds per-shard memory. Resealing with the same shard count is a
// no-op; with a different one it panics (there are no records left to
// repartition).
func (m *Mapper) SealSharded(shards, workers int) {
	m.SealShardedTraced(shards, workers, nil)
}

// SealShardedTraced is SealSharded with a per-shard build hook (see
// sketch.Builder.Freeze); the facade uses it to attach per-shard build
// spans.
func (m *Mapper) SealShardedTraced(shards, workers int, trace func(shard int, fn func())) {
	if m.Sealed() {
		if m.Shards() != shards {
			panic(fmt.Sprintf("core: SealSharded(%d) on a mapper already sealed with %d shards", shards, m.Shards()))
		}
		return
	}
	sf, err := m.build.Freeze(shards, workers, trace)
	if err != nil {
		// Only a shard beyond the payload's 32-bit section counts gets
		// here; the error names it and says to use more shards.
		panic(err.Error())
	}
	m.sharded, m.src, m.build = sf, localSource{sf}, nil
}

// Seal is SealSharded with one shard. Seal is idempotent, and a no-op
// on a mapper sealed with any shard count.
func (m *Mapper) Seal() {
	if !m.Sealed() {
		m.SealSharded(1, 0)
	}
}

// Sealed reports whether the mapper has been sealed.
func (m *Mapper) Sealed() bool { return m.build == nil }

// Entries returns the total posting count of the sealed table. An
// unsealed mapper reports 0 (its records are not a table yet), and so
// does a remote one: its postings are resident in the shard servers,
// not this process.
func (m *Mapper) Entries() int {
	if m.sharded == nil {
		return 0
	}
	return m.sharded.Entries()
}

// NumSubjects returns the number of subjects indexed so far.
func (m *Mapper) NumSubjects() int { return len(m.subjects) }

// Subject returns metadata for subject id.
func (m *Mapper) Subject(id int32) SubjectMeta { return m.subjects[id] }

// AddSubjectsParallel sketches and indexes contigs with the given
// number of workers (≤0 means GOMAXPROCS), each sketching contigs and
// appending their records to its own appender. Subject ids are
// assigned densely in input order, continuing from any previously
// added subjects. Which worker took which contig leaves no trace in
// the sealed table, so results are identical for every worker count.
// Sessions size their counters to the subject set, so it may grow
// only until the mapper is sealed: afterwards this panics.
func (m *Mapper) AddSubjectsParallel(contigs []seq.Record, workers int) {
	if m.Sealed() {
		panic("core: AddSubjectsParallel on a sealed mapper")
	}
	base := len(m.subjects)
	m.subjects = append(m.subjects, SubjectsOf(contigs)...)
	parallel.ForEachWorker(len(contigs), workers, m.build.Appender, func(a *sketch.Appender, i int) {
		words, anchors := m.sk.SubjectSketchPositional(contigs[i].Seq)
		a.Append(int32(base+i), words, anchors)
	})
}

// SubjectsOf returns the metadata a mapper keeps of contigs, in input
// order: subject i is contigs[i].
func SubjectsOf(contigs []seq.Record) []SubjectMeta {
	out := make([]SubjectMeta, len(contigs))
	for i := range contigs {
		out[i] = SubjectMeta{Name: contigs[i].ID, Length: int32(len(contigs[i].Seq))}
	}
	return out
}

// NewSealed returns a sealed mapper serving sf over subjects, sketching
// queries with p: the one constructor for a table built outside the
// mapper — an index load, or the simulated ranks' gathered S_global.
// Subject ids in sf index subjects.
func NewSealed(p sketch.Params, subjects []SubjectMeta, sf *sketch.ShardedFrozen) (*Mapper, error) {
	sk, err := sketch.NewSketcher(p)
	if err != nil {
		return nil, err
	}
	return &Mapper{sk: sk, sharded: sf, src: localSource{sf}, subjects: subjects}, nil
}

// Session carries the per-worker lazy-update counter state of §III-C:
// an array A[1..n] of ⟨count u, query id v⟩ tuples. A counter is valid
// for the current query only when its stored query id matches, which
// avoids resetting n counters per query. Sessions are cheap relative
// to the table and are NOT safe for concurrent use; create one per
// goroutine.
type Session struct {
	m       *Mapper
	src     postingSource   // where posting lists come from, captured at creation
	done    <-chan struct{} // cancellation signal from WithContext (nil = never)
	ctx     context.Context // request context from WithContext (nil = none)
	count   []int32
	lastq   []int32
	qid     int32
	cand    []int32            // subjects touched by the current query
	plists  [][]sketch.Posting // per-trial postings of the current query
	scanned int64              // postings examined across all queries

	// Query scratch: the current segment's sketch, and the offset votes
	// of a positional lookup's two strand hypotheses.
	q        sketch.Query
	fwd, rev []int32

	// Scatter scratch: one slot per shard (sized on the first query) and
	// the shards the current query routed to, in first-touch order.
	shards  []shardScratch
	touched []int32

	// lostSet is the cumulative set of shards that were lost to some
	// query — the degraded-answer record surfaced through LostShards.
	lostSet map[int]struct{}

	// timeShards turns on per-shard wall time in ShardWork; off, an
	// untraced run never pays the clock reads.
	timeShards bool
}

// shardScratch is one shard's slot of a session's scatter scratch.
type shardScratch struct {
	// trials are the current query's trials routed to this shard.
	trials []int32
	// words is the remote source's probe batch, parallel to trials.
	words []sketch.Word
	// err and dur are the posting source's report for the current
	// query: err non-nil means the shard is lost for it, dur (under
	// timeShards only) is how long resolving its probes took.
	err error
	dur time.Duration
	// work is the cumulative tally ShardWork snapshots. Postings are
	// accumulated always — one add per touched shard per query, noise
	// next to the scan itself.
	work ShardWork
}

// ShardWork is one shard's cumulative work as seen by one session:
// how many postings its probes returned and (when shard timing is
// enabled) how long the posting source took to resolve them — table
// lookups locally, the RPC round-trip remotely. It is the per-shard
// breakdown a request trace attributes scatter-gather time with.
type ShardWork struct {
	Postings int64
	Wall     time.Duration
}

// NewSession creates a mapping session over the mapper's subject set.
// The mapper must be sealed: a session on a builder panics, there is
// no table to serve from yet.
func (m *Mapper) NewSession() *Session {
	if m.src == nil {
		panic("core: NewSession on an unsealed mapper (Seal it first)")
	}
	n := len(m.subjects)
	s := &Session{
		m:     m,
		src:   m.src,
		count: make([]int32, n),
		lastq: make([]int32, n),
		qid:   0,
	}
	for i := range s.lastq {
		s.lastq[i] = -1
	}
	return s
}

// WithContext attaches ctx's cancellation signal to the session and
// returns it. Long multi-segment operations (MapReadTiled) poll
// Interrupted between segments and stop early once the context is
// done; single-segment lookups always run to completion, so a
// cancelled session never leaves partial counter state behind.
func (s *Session) WithContext(ctx context.Context) *Session {
	s.ctx = ctx
	s.done = ctx.Done()
	return s
}

// context returns the request context attached via WithContext — the
// context remote shard queries inherit their deadlines from.
//
//jem:detached sessions created without WithContext have no caller context to inherit
func (s *Session) context() context.Context {
	if s.ctx != nil {
		return s.ctx
	}
	return context.Background()
}

// LostShards returns the sorted ids of shards that failed terminally
// at any point in this session's lifetime — a remote shard whose
// queries exhausted their retry budget — the per-session
// degraded-answer record. Queries touching a lost shard completed with
// the surviving shards' postings only.
func (s *Session) LostShards() []int {
	if len(s.lostSet) == 0 {
		return nil
	}
	out := make([]int, 0, len(s.lostSet))
	for sd := range s.lostSet {
		out = append(out, sd)
	}
	sort.Ints(out)
	return out
}

// Interrupted reports whether the context attached via WithContext has
// been cancelled. Sessions without a context are never interrupted.
func (s *Session) Interrupted() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// PostingsScanned returns the cumulative number of sketch-table
// postings this session has examined — the dominant unit of query
// work, surfaced through jem.Stats for serving telemetry.
func (s *Session) PostingsScanned() int64 { return s.scanned }

// EnableShardTiming turns on per-shard wall-clock accumulation for
// this session's queries. Off by default: a traced request opts in, an
// untraced one never reads the clock per shard.
func (s *Session) EnableShardTiming() { s.timeShards = true }

// ShardWork returns a snapshot of the per-shard work this session has
// done — empty before the first query and on a one-shard mapper, whose
// only shard is the whole (PostingsScanned already says it all). Wall
// fields are zero unless EnableShardTiming was called before the
// queries ran.
func (s *Session) ShardWork() []ShardWork {
	if len(s.shards) < 2 {
		return nil
	}
	out := make([]ShardWork, len(s.shards))
	for i := range out {
		out[i] = s.ShardWorkAt(i)
	}
	return out
}

// ShardWorkAt is shard's entry of ShardWork, read in place: zero for a
// shard the session has not queried.
func (s *Session) ShardWorkAt(shard int) ShardWork {
	if shard >= len(s.shards) {
		return ShardWork{}
	}
	return s.shards[shard].work
}

// MapSegment maps one end segment and returns its best hit: T table
// probes, then the lazy-counter candidate scan (§III-C). ok=false
// means the segment produced no sketch or no subject was hit in any
// trial. Ties are broken toward the lower subject id for determinism.
//
//jem:hotpath
func (s *Session) MapSegment(segment []byte) (Hit, bool) {
	s.m.sk.SketchQuery(&s.q, segment)
	if len(s.q.Words) == 0 {
		return Hit{Subject: -1}, false
	}
	s.scanWords(s.q.Words)
	if len(s.cand) == 0 {
		return Hit{Subject: -1}, false
	}
	return s.bestCandidate(), true
}

// scanWords is the one counting pass (Alg. 2, §III-C): the query's T
// ⟨trial, word⟩ probes are scattered by sketch.ShardOf, the mapper's
// posting source resolves every touched shard's probes into s.plists
// (one posting list per trial), and the lists are counted straight
// into the global lazy-update counters in touched-shard order, leaving
// the query's candidate set in s.cand/s.count. Every posting list lives
// in exactly one shard and the order depends only on ⟨words, P⟩, so
// every source and every shard count leave identical counter state —
// results and PostingsScanned are byte-identical across backends.
//
// The degraded-answer policy lives here: a touched shard the source
// reports lost (a remote shard whose retry budget ran out) contributes
// nothing to this query. Its id joins the session's lost set and the
// query completes with the surviving shards.
//
//jem:hotpath
func (s *Session) scanWords(words []sketch.Word) {
	s.qid++
	qid := s.qid
	s.cand = s.cand[:0]
	if cap(s.plists) < len(words) {
		s.plists = make([][]sketch.Posting, len(words))
	}
	s.plists = s.plists[:len(words)]
	p := s.src.numShards()
	if len(s.shards) < p {
		s.shards = make([]shardScratch, p)
	}
	touched := s.touched[:0]
	for t, w := range words {
		sd := sketch.ShardOf(t, w, p)
		sh := &s.shards[sd]
		if len(sh.trials) == 0 {
			touched = append(touched, int32(sd))
		}
		sh.trials = append(sh.trials, int32(t))
	}
	s.src.fetch(s, words, touched)
	for _, sd := range touched {
		sh := &s.shards[sd]
		trials := sh.trials
		sh.trials = trials[:0]
		if sh.err != nil {
			s.noteLostShard(int(sd))
			// plists is reused across queries; a lost shard's trials
			// must not leak the previous query's posting lists into
			// this one's offset-vote pass.
			for _, t := range trials {
				s.plists[t] = nil
			}
			continue
		}
		var scanned int64
		for _, t := range trials {
			ps := s.plists[t]
			scanned += int64(len(ps))
			for _, pp := range ps {
				subj := pp.Subject
				if s.lastq[subj] != qid {
					s.lastq[subj] = qid
					s.count[subj] = 0
					s.cand = append(s.cand, subj)
				}
				s.count[subj]++
			}
		}
		s.scanned += scanned
		sh.work.Postings += scanned
		if s.timeShards {
			sh.work.Wall += sh.dur
		}
	}
	s.touched = touched[:0]
}

// noteLostShard records a terminal per-query shard failure in the
// session's cumulative lost set.
func (s *Session) noteLostShard(sd int) {
	if s.lostSet == nil {
		s.lostSet = make(map[int]struct{})
	}
	s.lostSet[sd] = struct{}{}
}

// bestCandidate picks the winner from the current query's candidate
// set: highest count, ties toward the lower subject id — a choice
// independent of candidate order.
//
//jem:hotpath
func (s *Session) bestCandidate() Hit {
	best := Hit{Subject: -1, Count: 0}
	for _, subj := range s.cand {
		c := s.count[subj]
		if c > best.Count || (c == best.Count && subj < best.Subject) {
			best = Hit{Subject: subj, Count: c}
		}
	}
	return best
}

// PositionalHit extends Hit with an approximate target location: the
// median interval anchor of the trials that hit the subject, giving
// the start of the ~ℓ-long region of the contig the segment maps to.
// This positional estimate is an extension over the paper (whose
// output is subject ids only) enabled by the positional sketch table.
type PositionalHit struct {
	Hit
	// TargetStart is the estimated start of the mapped region on the
	// subject; TargetEnd is TargetStart + len(segment) clamped to the
	// subject length. TargetStart is -1 when no positional provenance
	// exists.
	TargetStart, TargetEnd int32
	// Reverse is true when the segment maps to the subject's reverse
	// strand (decided by which offset-vote hypothesis clusters more
	// tightly).
	Reverse bool
}

// MapSegmentPositional maps a segment and estimates where on the best
// subject it landed: each trial whose sketch word hits the winning
// subject votes with the offset (target anchor − query word position),
// and the median offset is the estimated start of the mapped region.
//
//jem:hotpath
func (s *Session) MapSegmentPositional(segment []byte) (PositionalHit, bool) {
	s.m.sk.SketchQuery(&s.q, segment)
	words, qpos := s.q.Words, s.q.Pos
	if len(words) == 0 {
		return PositionalHit{Hit: Hit{Subject: -1}, TargetStart: -1}, false
	}
	s.scanWords(words)
	if len(s.cand) == 0 {
		return PositionalHit{Hit: Hit{Subject: -1}, TargetStart: -1}, false
	}
	best := s.bestCandidate()
	// Second pass over the per-trial posting lists the counting pass
	// left in s.plists: offset votes for the winning subject under both
	// strand hypotheses. A forward pair satisfies anchor − qpos ≈
	// segment start on the subject; a reverse pair satisfies
	// anchor + qpos ≈ start + len(segment) − k. The true hypothesis
	// clusters tightly around one value while the false one spreads.
	fwd, rev := s.fwd[:0], s.rev[:0]
	for t := range words {
		for _, p := range s.plists[t] {
			if p.Subject == best.Subject && p.Anchor >= 0 {
				fwd = append(fwd, p.Anchor-qpos[t])
				rev = append(rev, p.Anchor+qpos[t])
			}
		}
	}
	s.fwd, s.rev = fwd, rev
	ph := PositionalHit{Hit: best, TargetStart: -1}
	if len(fwd) == 0 {
		return ph, true
	}
	tol := int32(s.m.sk.Params().W + s.m.sk.Params().K)
	fMed, fVotes := medianCluster(fwd, tol)
	rMed, rVotes := medianCluster(rev, tol)
	var start int32
	if rVotes > fVotes {
		ph.Reverse = true
		start = rMed - int32(len(segment)) + int32(s.m.sk.Params().K)
	} else {
		start = fMed
	}
	if start < 0 {
		start = 0
	}
	ph.TargetStart = start
	ph.TargetEnd = start + int32(len(segment))
	if l := s.m.subjects[best.Subject].Length; ph.TargetEnd > l {
		ph.TargetEnd = l
	}
	return ph, true
}

// medianCluster sorts xs, takes the median, and counts values within
// ±tol of it — the cluster-size score used to pick the strand
// hypothesis. xs is modified (sorted) in place.
func medianCluster(xs []int32, tol int32) (median int32, votes int) {
	slices.Sort(xs)
	median = xs[len(xs)/2]
	for _, x := range xs {
		if x >= median-tol && x <= median+tol {
			votes++
		}
	}
	return median, votes
}

// MapSegmentTopK returns up to k hits ordered by descending count
// (ties toward lower subject id) — the paper's proposed top-x
// extension (§IV-C).
func (s *Session) MapSegmentTopK(segment []byte, k int) []Hit {
	s.m.sk.SketchQuery(&s.q, segment)
	if len(s.q.Words) == 0 || k <= 0 {
		return nil
	}
	s.scanWords(s.q.Words)
	if len(s.cand) == 0 {
		return nil
	}
	hits := make([]Hit, 0, len(s.cand))
	for _, subj := range s.cand {
		hits = append(hits, Hit{Subject: subj, Count: s.count[subj]})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Count != hits[j].Count {
			return hits[i].Count > hits[j].Count
		}
		return hits[i].Subject < hits[j].Subject
	})
	if len(hits) > k {
		hits = hits[:k]
	}
	return hits
}

// TileHit is one interior-tile mapping: the tile's offset on the read
// plus the best hit for that tile.
type TileHit struct {
	// Offset is the tile's start position on the read.
	Offset int32
	// Length is the tile length (the last tile may be shorter than ℓ).
	Length int32
	Hit
}

// MapReadTiled maps consecutive ℓ-length tiles across the WHOLE read,
// not just its ends — the extension the paper flags (§III-B.1) for
// non-scaffolding use-cases where a contig can be contained entirely
// within a read's interior and would be invisible to end-segment
// mapping. Tiles advance by stride bases (stride ≤ 0 means ℓ, i.e.
// non-overlapping tiles; stride = ℓ/2 gives half-overlapping tiles for
// better boundary coverage). Unmapped tiles are omitted.
func (s *Session) MapReadTiled(read []byte, l, stride int) []TileHit {
	if l <= 0 || len(read) == 0 {
		return nil
	}
	if stride <= 0 {
		stride = l
	}
	var out []TileHit
	for off := 0; ; off += stride {
		if s.Interrupted() {
			return out
		}
		end := off + l
		last := false
		if end >= len(read) {
			end = len(read)
			last = true
		}
		if end-off >= s.m.sk.Params().K {
			hit, ok := s.MapSegment(read[off:end])
			if ok {
				out = append(out, TileHit{Offset: int32(off), Length: int32(end - off), Hit: hit})
			}
		}
		if last {
			break
		}
	}
	return out
}

// ContainedSubjects reports the distinct subjects hit by interior
// tiles but by neither end tile — candidates for contigs fully
// contained within the read, which end-segment mapping cannot see.
func (s *Session) ContainedSubjects(read []byte, l int) []int32 {
	tiles := s.MapReadTiled(read, l, 0)
	if len(tiles) <= 2 {
		return nil
	}
	atEnds := make(map[int32]struct{})
	readLen := int32(len(read))
	for _, th := range tiles {
		if th.Offset == 0 || th.Offset+th.Length >= readLen {
			atEnds[th.Subject] = struct{}{}
		}
	}
	seen := make(map[int32]struct{})
	var out []int32
	for _, th := range tiles {
		if th.Offset == 0 || th.Offset+th.Length >= readLen {
			continue
		}
		if _, end := atEnds[th.Subject]; end {
			continue
		}
		if _, dup := seen[th.Subject]; dup {
			continue
		}
		seen[th.Subject] = struct{}{}
		out = append(out, th.Subject)
	}
	return out
}

// String renders a result for diagnostics.
func (r Result) String() string {
	return fmt.Sprintf("read %d %s -> subject %d (hits %d)", r.ReadIndex, r.Kind, r.Subject, r.Count)
}
