package jem

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/seq"
)

// Stats is a snapshot of the per-phase counters of one Stream run:
// how much came in, how much work the sketch-table lookups did, and
// where the wall time went. Phases overlap (the stream is pipelined),
// so the wall times measure work inside each phase, not elapsed
// stream time.
//
// The run's writer adds each drained batch's numbers to this Stats and
// publishes the same numbers to the mapper's obs.Registry (see
// Metrics), which can be watched live via jem-mapper -metrics-addr.
// The registry aggregates across runs, so with N concurrent Map/Stream
// calls on one Mapper each call's Stats reports exactly its own work
// and the N Stats sum to the registry movement.
type Stats struct {
	// Reads is the number of well-formed records pulled from the input
	// stream (bad records are counted separately in BadRecords).
	Reads int
	// Segments is the number of end segments mapped (≤ 2 per read).
	Segments int
	// Mapped counts segments that hit a contig.
	Mapped int
	// BadRecords counts malformed or over-length records encountered;
	// non-zero only under the skip and quarantine policies (the fail
	// policy aborts on the first one).
	BadRecords int
	// Quarantined counts bad records handled under the quarantine
	// policy (each one also produced a sidecar entry when a sidecar
	// writer was configured).
	Quarantined int
	// WorkerPanics counts batches lost to a recovered worker panic.
	WorkerPanics int
	// PostingsScanned is the total number of sketch-table postings
	// examined across all lookups — the dominant unit of query work.
	PostingsScanned int64
	// ShardsLost is the sorted set of shard ids that failed terminally
	// during the run: shards of a remote fleet
	// (OpenOptions.ShardServers) whose query budget was exhausted. A
	// local index never loses a shard (every shard is verified at
	// open). A non-empty value marks the output as a degraded answer:
	// every row was produced, but segments whose probes routed to a
	// lost shard were mapped without that shard's postings (see
	// docs/DISTRIBUTED.md). jem-serve surfaces it as the
	// X-JEM-Shards-Lost response header.
	ShardsLost []int
	// ReadWall is time spent cutting the FASTA/FASTQ input into
	// record-aligned batches.
	ReadWall time.Duration
	// MapWall is aggregate worker time spent sketching and mapping.
	MapWall time.Duration
	// WriteWall is time spent formatting and writing rows.
	WriteWall time.Duration
}

// BadRecordPolicy says what the streaming pipeline does when the
// input yields a malformed or over-length record.
type BadRecordPolicy uint8

const (
	// BadRecordFail aborts the stream on the first bad record — the
	// default, and the pre-quarantine behavior.
	BadRecordFail BadRecordPolicy = iota
	// BadRecordSkip counts the bad record and continues with the next
	// parseable record.
	BadRecordSkip
	// BadRecordQuarantine counts the bad record, appends an entry to
	// the quarantine sidecar (when one is configured), and continues.
	BadRecordQuarantine
)

// ParseBadRecordPolicy parses the jem-mapper -on-bad-record flag
// values: "fail", "skip" or "quarantine".
func ParseBadRecordPolicy(s string) (BadRecordPolicy, error) {
	switch s {
	case "fail":
		return BadRecordFail, nil
	case "skip":
		return BadRecordSkip, nil
	case "quarantine":
		return BadRecordQuarantine, nil
	}
	return BadRecordFail, fmt.Errorf("jem: unknown bad-record policy %q (want fail, skip or quarantine)", s)
}

func (p BadRecordPolicy) String() string {
	switch p {
	case BadRecordSkip:
		return "skip"
	case BadRecordQuarantine:
		return "quarantine"
	default:
		return "fail"
	}
}

// Format selects the row encoding Stream writes.
type Format uint8

const (
	// FormatTSV is WriteTSV's table: a header, then read_id, end,
	// contig_id, shared_trials per end segment ("*": unmapped).
	FormatTSV Format = iota
	// FormatPAF is PAF, minimap2's interchange format, over the
	// positional estimates of MapReadsPositional: one row per mapped
	// segment. Matching bases (column 10) scale the shared-trial count to
	// the segment length; a jm:i tag carries the count itself.
	FormatPAF
	// FormatSAM is SAM: an @HD/@SQ/@PG header, then one record per end
	// segment, its hit chosen by banded alignment among the sketch's top
	// candidates (paper future work i); it needs the contig records.
	// QNAME is "<read id>/prefix|suffix"; SEQ is the segment,
	// reverse-complemented under flag 0x10; MAPQ scales the shared-trial
	// count to [0,60]; jm:i and pi:f carry the count and the percent
	// identity; an unmapped segment is flag 0x4 with '*' placeholders.
	FormatSAM
	// FormatNDJSON is one JSON object per end segment (read_id, end,
	// mapped, and for a hit contig_id, shared_trials): jem-serve's
	// ?format=json.
	FormatNDJSON
)

var formatNames = [...]string{FormatTSV: "tsv", FormatPAF: "paf", FormatSAM: "sam", FormatNDJSON: "json"}

// ParseFormat parses a Format name: "tsv", "paf", "sam" or "json".
func ParseFormat(s string) (Format, error) {
	for f, name := range formatNames {
		if s == name {
			return Format(f), nil
		}
	}
	return FormatTSV, fmt.Errorf("jem: unknown format %q (want tsv, paf, sam or json)", s)
}

func (f Format) String() string {
	if int(f) < len(formatNames) {
		return formatNames[f]
	}
	return "Format(" + strconv.Itoa(int(f)) + ")"
}

// StreamOptions configures one Mapper.Stream call. The zero value is
// the historical default: TSV rows, the mapper's Workers setting, fail
// on the first bad record, no length limit, no sidecar.
type StreamOptions struct {
	// Format selects the row encoding.
	Format Format
	// Workers overrides the mapper's Workers setting for this stream;
	// 0 keeps it.
	Workers int
	// OnBadRecord selects the malformed-record policy.
	OnBadRecord BadRecordPolicy
	// Quarantine, when non-nil and OnBadRecord is BadRecordQuarantine,
	// receives one tab-separated line per quarantined record:
	// input line number, record ID ("*" when unknown), parse error.
	// Sidecar write errors are sticky: the stream keeps running and
	// the first sidecar error is reported when the run ends (unless a
	// more important error happened).
	Quarantine io.Writer
	// MaxRecordLen, when > 0, treats records longer than this many
	// bases as bad records: an over-length read in a long-read stream
	// is usually an upstream concatenation bug, and mapping it would
	// silently dilute sketch quality.
	MaxRecordLen int
}

// streamBatch is the number of reads handed to a worker at once:
// large enough to amortize channel traffic, small enough that the
// in-order writer never buffers much.
const streamBatch = 64

type streamWork struct {
	seq int // batch sequence number (write order)
	// buf and spans are the batch's input, whole records cut from the
	// stream (seq.Reader.Cut). The writer recycles buf once it has
	// encoded the rows, which may alias it (FormatSAM's segments).
	buf   []byte
	spans []seq.Span
	// bad and quarantined count the bad records the reader met while
	// cutting the batch, readWall its time doing so.
	bad, quarantined int32
	readWall         time.Duration
}

// base is the global read index of spans[0]: every batch but the last
// holds streamBatch reads. (streamResult embeds streamWork and must
// stay within 128 bytes, the largest value a map holds inline, so the
// writer's reorder map never allocates per batch.)
func (in streamWork) base() int { return in.seq * streamBatch }

// chunkPool is one Stream call's free list of batch inputs: local to
// the call, so no buffer outlives it, and at most the pipeline's depth.
type chunkPool chan streamWork

func (p chunkPool) get() streamWork {
	select {
	case in := <-p:
		return streamWork{buf: in.buf, spans: in.spans[:0]}
	default:
		return streamWork{spans: make([]seq.Span, 0, streamBatch)}
	}
}

func (p chunkPool) put(in streamWork) {
	select {
	case p <- in:
	default: // the pool is full: in is garbage
	}
}

// read is record j as core.AppendEnds maps it: its ID the front of ids
// (the rest is returned), its sequence in place in buf, where its
// l-long end segments, all Alg. 2 reads of it, are upper-cased.
//
//jem:hotpath
func (in streamWork) read(j int, ids string, l int) (seq.Record, string) {
	sp := in.spans[j]
	s := sp.Seq.Of(in.buf)
	if len(s) > l {
		seq.Upper(s[:l])
		seq.Upper(s[len(s)-l:])
	} else {
		seq.Upper(s)
	}
	n := sp.ID.Len()
	return seq.Record{ID: ids[:n], Seq: s}, ids[n:]
}

// streamResult is one mapped batch: the format's rows in (read, end)
// order, next to the records they came from, which an encoder may read.
type streamResult[R streamRow] struct {
	streamWork
	rows []R
	// err is set when the batch was lost to a recovered worker panic;
	// rows is nil then.
	err error
	// mapWall and postings are the worker's time and postings scanned
	// on the batch.
	mapWall  time.Duration
	postings int64
}

// streamRow is a format's row type: Mapping, or a struct embedding it.
type streamRow interface{ hit() bool }

// hit is what Stream's writer counts of any format's row.
func (mp Mapping) hit() bool { return mp.Mapped }

// rowFormat is one Format: the row each end segment maps to, the bytes
// of a row of batch (no bytes, no row), and the bytes before the first
// row (nil: none).
type rowFormat[R streamRow] struct {
	header func(m *Mapper, b []byte) []byte
	row    func(m *Mapper, sess *core.Session, e core.End) R
	encode func(m *Mapper, b []byte, r *R, batch streamWork) []byte
}

// The formats hold method expressions, not method values, so choosing
// one allocates nothing.
var (
	tsvFormat = rowFormat[Mapping]{
		header: func(_ *Mapper, b []byte) []byte { return append(b, tsvHeader...) },
		row:    (*Mapper).mapEnd,
		encode: func(_ *Mapper, b []byte, r *Mapping, _ streamWork) []byte { return appendTSVRow(b, r) },
	}
	pafFormat    = rowFormat[PositionalMapping]{row: (*Mapper).positionalEnd, encode: (*Mapper).appendPAFRow}
	samFormat    = rowFormat[samRow]{header: (*Mapper).appendSAMHeader, row: (*Mapper).samEnd, encode: (*Mapper).appendSAMRow}
	ndjsonFormat = rowFormat[Mapping]{row: (*Mapper).mapEnd, encode: appendNDJSONRow}
)

// appendNDJSONRow is FormatNDJSON's encoder.
//
//jem:hotpath
func appendNDJSONRow(_ *Mapper, b []byte, r *Mapping, _ streamWork) []byte {
	b = append(b, `{"read_id":`...)
	b = strconv.AppendQuote(b, r.ReadID)
	b = append(b, `,"end":`...)
	b = strconv.AppendQuote(b, string(r.End))
	if !r.Mapped {
		return append(b, `,"mapped":false}`+"\n"...)
	}
	b = append(b, `,"mapped":true,"contig_id":`...)
	b = strconv.AppendQuote(b, r.ContigID)
	b = append(b, `,"shared_trials":`...)
	b = strconv.AppendInt(b, int64(r.SharedTrials), 10)
	return append(b, '}', '\n')
}

// quarantineSidecar appends bad-record entries to the sidecar writer.
// Write errors are sticky: after the first failure later entries are
// dropped and the retained error surfaces when the stream ends. The
// sidecar is only ever touched from the reader goroutine.
type quarantineSidecar struct {
	w   io.Writer
	err error
	buf []byte
}

func (q *quarantineSidecar) record(line int, id string, cause error) {
	if q.w == nil || q.err != nil {
		return
	}
	if id == "" {
		id = "*"
	}
	b := q.buf[:0]
	b = strconv.AppendInt(b, int64(line), 10)
	b = append(b, '\t')
	b = append(b, id...)
	b = append(b, '\t')
	b = append(b, cause.Error()...)
	b = append(b, '\n')
	q.buf = b
	if _, err := q.w.Write(b); err != nil {
		q.err = err
	}
}

// Stream is the canonical streaming entry point: it maps long reads
// from a FASTA/FASTQ stream without loading the whole file and writes
// them as opts.Format rows. The stream is pipelined: a reader goroutine
// cuts the input into record-aligned batches, copying no base, a worker
// pool maps batches concurrently with persistent per-worker sessions,
// and the calling goroutine encodes and writes rows in input order as
// batches complete. It is the memory-bounded counterpart of Map for
// production-sized read sets (the contig index still lives in memory,
// as in the paper).
//
// Robustness contracts:
//
//   - Cancellation: when ctx is cancelled the reader stops pulling
//     records, every batch already in flight is drained, mapped and
//     written, and ctx.Err() is returned — partial output is flushed
//     and fully accounted in Stats, never discarded.
//   - A mid-stream read error does not discard work: every record read
//     before the error is still mapped, written and counted before the
//     error is propagated.
//   - Bad records: under opts.OnBadRecord skip/quarantine, a malformed
//     or over-length record is counted (Stats.BadRecords, and the
//     obs registry's jem_stream_bad_records_total), optionally written
//     to the quarantine sidecar, and the reader resynchronizes to the
//     next record. Only structural errors (seq.RecordError) are
//     skippable; I/O errors always abort the stream.
//   - Worker panics are recovered and converted to per-batch errors:
//     under the fail policy the first one is returned (after the
//     pipeline drains); under skip/quarantine the batch's rows are
//     lost but counted (Stats.WorkerPanics) and the stream continues.
//     The process never crashes.
//   - A write error stops output but not accounting: the pipeline
//     still drains and counts every batch that was mapped, so Stats
//     reflects the work actually done.
//
// The writer counts each batch as it drains it, into the returned
// Stats and into the mapper's obs.Registry (see Metrics) at once, so
// concurrent traffic on the same mapper (another Stream, Map) never
// contaminates a run's Stats — the registry carries the fleet-wide
// aggregate.
//
// Invalid options, and FormatSAM on a mapper without its contig
// records, fail with an error wrapping ErrInvalidOptions before any
// byte is written.
func (m *Mapper) Stream(ctx context.Context, r io.Reader, w io.Writer, opts StreamOptions) (Stats, error) {
	if err := opts.validate(); err != nil {
		return Stats{}, err
	}
	switch opts.Format {
	case FormatPAF:
		return pafFormat.stream(ctx, m, r, w, opts)
	case FormatSAM:
		if len(m.contigs) != m.NumContigs() {
			return Stats{}, optErr("Format", opts.Format, "needs the contig records (OpenOptions.Contigs when loading an index)")
		}
		return samFormat.stream(ctx, m, r, w, opts)
	case FormatNDJSON:
		return ndjsonFormat.stream(ctx, m, r, w, opts)
	}
	return tsvFormat.stream(ctx, m, r, w, opts)
}

// stream is Stream over format f.
func (f rowFormat[R]) stream(ctx context.Context, m *Mapper, r io.Reader, w io.Writer, opts StreamOptions) (Stats, error) {
	var stats Stats
	// Request-scoped tracing: when the context carries a span (a traced
	// serving request), this run attaches per-phase children and
	// per-shard scatter-gather timings to it. Untraced runs skip every
	// trace-only cost, including the per-shard clock reads.
	sp := obs.SpanFromContext(ctx)
	// Fault-injection points (no-ops unless a test armed them).
	r = fault.Reader(r)
	w = fault.Writer(w)
	buf := make([]byte, 0, 128)
	if f.header != nil {
		buf = f.header(m, buf)
		if _, err := w.Write(buf); err != nil {
			return stats, err
		}
	}
	streamWorkers := opts.Workers
	if streamWorkers == 0 {
		streamWorkers = m.opts.Workers
	}
	workers := parallel.Workers(streamWorkers)
	work := make(chan streamWork, workers)
	results := make(chan streamResult[R], workers)
	// At most a batch being cut, the queued work, one per worker, the
	// queued results and the writer's reorder window are in flight.
	chunks := make(chunkPool, 3*workers+2)
	sidecar := &quarantineSidecar{}
	if opts.OnBadRecord == BadRecordQuarantine {
		sidecar.w = opts.Quarantine
	}

	// Reader: cut records into fixed-size batches for the workers.
	// On a mid-stream error or cancellation the partial batch is still
	// flushed so already-read records reach the writer before the
	// error returns. A batch's read wall excludes the reader's waits
	// for a worker to take it; what the reader met after its last
	// batch is left in rest.
	var (
		readErr error
		rest    streamWork
	)
	go func() {
		defer close(work)
		sr := seq.NewReader(r)
		sr.MaxLen = opts.MaxRecordLen
		in := chunks.get()
		t0 := time.Now()
		for {
			if err := ctx.Err(); err != nil {
				readErr = err
				break
			}
			sp, err := sr.Cut()
			if err == io.EOF {
				break
			}
			if err != nil {
				if opts.OnBadRecord == BadRecordFail || !seq.IsRecordError(err) {
					readErr = err
					break
				}
				in.bad++
				if opts.OnBadRecord == BadRecordQuarantine {
					in.quarantined++
					sidecar.record(sr.Line(), recordErrID(err), err)
				}
				if rerr := sr.Resync(); rerr != nil {
					if rerr != io.EOF {
						readErr = rerr
					}
					break
				}
				continue
			}
			in.spans = append(in.spans, sp)
			if len(in.spans) == streamBatch {
				next := chunks.get()
				in.buf = sr.Chunk(next.buf) // next.buf is the reader's now
				in.readWall = time.Since(t0)
				work <- in
				t0 = time.Now()
				in = streamWork{seq: in.seq + 1, spans: next.spans}
			}
		}
		in.readWall = time.Since(t0)
		if len(in.spans) == 0 {
			// Written before close(work), which happens-before the
			// workers exit and therefore before the drain returns.
			rest = in
			return
		}
		in.buf = sr.Chunk(nil)
		work <- in
	}()

	// Workers: persistent sessions, one per goroutine, reused across
	// every batch the worker processes (sessions carry the lazy-update
	// counter arrays, so reuse is what makes per-query cost O(hits)).
	// A result carries the batch's map wall and postings to the writer.
	// Panics inside a batch are recovered in mapBatch; a worker never
	// takes the process down.
	sessions := make([]*core.Session, workers)
	var wg sync.WaitGroup
	for i := range sessions {
		sess := m.core.NewSession().WithContext(ctx)
		if sp != nil {
			sess.EnableShardTiming()
		}
		sessions[i] = sess
		wg.Add(1)
		go func() {
			defer wg.Done()
			for item := range work {
				t0, before := time.Now(), sess.PostingsScanned()
				res := f.mapBatch(m, sess, item)
				res.mapWall, res.postings = time.Since(t0), sess.PostingsScanned()-before
				results <- res
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	writeErr, batchErr := f.drainStreamResults(m, &stats, w, buf, results, chunks, opts.OnBadRecord == BadRecordFail)

	// The workers are all done (drainStreamResults returns only after
	// the results channel closes), so their sessions are idle; their
	// postings went out with the batches.
	m.met.publish(&stats, Stats{BadRecords: int(rest.bad), Quarantined: int(rest.quarantined),
		ReadWall: rest.readWall, ShardsLost: lostShards(sessions)}, sessions)
	if sp != nil {
		attachStreamSpans(sp, stats, shardWork(sessions))
	}
	switch {
	case writeErr != nil:
		return stats, writeErr
	case batchErr != nil:
		return stats, batchErr
	case readErr != nil:
		return stats, readErr
	case sidecar.err != nil:
		return stats, fmt.Errorf("jem: quarantine sidecar write failed: %w", sidecar.err)
	}
	return stats, nil
}

// recordErrID extracts the record ID from a seq.RecordError chain, ""
// when unavailable.
func recordErrID(err error) string {
	var re *seq.RecordError
	if errors.As(err, &re) {
		return re.ID
	}
	return ""
}

// mapBatch maps one batch to its rows, converting a panic anywhere in
// the sketch/lookup path into a per-batch error instead of crashing the
// process. The injected fault.WorkerPanic point lives here so tests
// can prove the recovery path end to end.
func (f rowFormat[R]) mapBatch(m *Mapper, sess *core.Session, item streamWork) (res streamResult[R]) {
	defer func() {
		if r := recover(); r != nil {
			res = streamResult[R]{streamWork: item, err: fmt.Errorf(
				"jem: worker panic mapping batch %d (reads %d-%d): %v",
				item.seq, item.base(), item.base()+len(item.spans)-1, r)}
		}
	}()
	if _, ok := fault.Fire(fault.WorkerPanic); ok {
		panic("injected worker panic")
	}
	rows := make([]R, 0, 2*len(item.spans))
	row := func(sess *core.Session, e core.End) R { return f.row(m, sess, e) }
	// The batch's read IDs go into one string, its one allocation for
	// them; read takes each ID off the front.
	n := 0
	for _, sp := range item.spans {
		n += sp.ID.Len()
	}
	var b strings.Builder
	b.Grow(n)
	for _, sp := range item.spans {
		b.Write(sp.ID.Of(item.buf))
	}
	ids := b.String()
	for j := range item.spans {
		var read seq.Record
		read, ids = item.read(j, ids, m.opts.SegmentLen)
		rows = core.AppendEnds(rows, sess, item.base()+j, read, m.opts.SegmentLen, row)
	}
	return streamResult[R]{streamWork: item, rows: rows}
}

// drainStreamResults is Stream's writer stage (run on the calling
// goroutine): reassemble input order, encode the rows into buf and
// write them one by one, publish each batch's numbers into st and the
// registry, then recycle its chunk. The results channel is always
// drained fully, even after a write or batch error, so the pipeline
// goroutines never leak; the first write error (and, when
// failOnBatchErr, the first batch error) is returned and further
// writes are skipped while accounting continues.
//
// pending is bounded by the pipeline depth, not the input size: a
// missing batch `next` can only be overtaken by batches that are
// already in flight — at most cap(work) queued + one per worker +
// cap(results) queued, ~3×workers batches — before the reader
// blocks on the work channel. A stalled batch therefore pauses the
// stream; it cannot balloon memory.
//
//jem:hotpath
func (f rowFormat[R]) drainStreamResults(m *Mapper, st *Stats, w io.Writer, buf []byte, results <-chan streamResult[R], chunks chunkPool, failOnBatchErr bool) (writeErr, batchErr error) {
	pending := make(map[int]streamResult[R])
	next := 0
	for res := range results {
		pending[res.seq] = res
		for {
			cur, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			d := Stats{Reads: len(cur.spans), BadRecords: int(cur.bad), Quarantined: int(cur.quarantined),
				PostingsScanned: cur.postings, ReadWall: cur.readWall, MapWall: cur.mapWall}
			rows := cur.rows
			if cur.err != nil {
				// A panicked batch has no rows. Under the fail policy the
				// first batch error becomes the run's error (after the
				// drain); otherwise the stream moves on.
				d.WorkerPanics = 1
				if failOnBatchErr && batchErr == nil {
					batchErr = cur.err
				}
			}
			// Count every drained batch — the mapping work happened
			// whether or not the rows can still be written — then skip
			// only the write once a write error is sticky.
			d.Segments = len(rows)
			for i := range rows {
				if rows[i].hit() {
					d.Mapped++
				}
			}
			if writeErr == nil && len(rows) > 0 {
				t0 := time.Now()
				for i := range rows {
					if buf = f.encode(m, buf[:0], &rows[i], cur.streamWork); len(buf) == 0 {
						continue
					}
					if _, err := w.Write(buf); err != nil {
						writeErr = err
						break
					}
				}
				d.WriteWall = time.Since(t0)
			}
			m.met.publish(st, d, nil)
			chunks.put(cur.streamWork)
		}
	}
	return writeErr, batchErr
}
