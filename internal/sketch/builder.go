package sketch

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/kmer"
	"repro/internal/parallel"
)

// record is one sketch posting on its way into the table. Records are
// fixed-width, so a run of them is also exactly what a rank
// contributes to the gather step.
type record struct {
	word    kmer.Word
	subject int32
	anchor  int32
}

const recordBytes = 16

// Builder is the one way a sketch table is made — the paper's S2→S3
// read literally: workers (or ranks) sketch their subjects and append
// ⟨word, subject, anchor⟩ records to private per-trial runs, and
// Freeze unions the runs by sorting them, straight into the flat
// serving layout. There is no mutable table: nothing can be looked up
// until Freeze has run.
type Builder struct {
	trials    int
	mu        sync.Mutex
	appenders []*Appender
}

// NewBuilder creates a builder for sketches of t trials.
func NewBuilder(t int) *Builder { return &Builder{trials: t} }

// Appender is one worker's private append-only end of a Builder. An
// appender is not safe for concurrent use; every goroutine takes its
// own.
type Appender struct {
	runs [][]record // runs[t]: this appender's records of trial t, in append order
}

// Appender registers and returns a new appender. It may be called
// concurrently; Freeze concatenates the appenders' runs in
// registration order.
func (b *Builder) Appender() *Appender {
	a := &Appender{runs: make([][]record, b.trials)}
	b.mu.Lock()
	b.appenders = append(b.appenders, a)
	b.mu.Unlock()
	return a
}

// Append adds one subject's per-trial sketch words. anchors is
// parallel to words (as produced by Sketcher.SubjectSketchPositional)
// or nil for sketches without positional provenance (Anchor -1). A
// subject must be appended through one appender only: a word repeated
// within a subject's trial then keeps its first anchor. Which appender
// took which subject leaves no trace in the frozen table.
func (a *Appender) Append(subject int32, words [][]kmer.Word, anchors [][]int32) {
	if len(words) != len(a.runs) || (anchors != nil && len(anchors) != len(a.runs)) {
		panic(fmt.Sprintf("sketch: sketch has %d trials (%d anchor lists), builder has %d",
			len(words), len(anchors), len(a.runs)))
	}
	for t, ws := range words {
		run := a.runs[t]
		for i, w := range ws {
			anchor := int32(-1)
			if anchors != nil {
				anchor = anchors[t][i]
			}
			run = append(run, record{word: w, subject: subject, anchor: anchor})
		}
		a.runs[t] = run
	}
}

// Bytes returns the size of this appender's runs: what a rank sends
// to the gather step.
func (a *Appender) Bytes() int64 {
	var n int64
	for _, run := range a.runs {
		n += int64(len(run)) * recordBytes
	}
	return n
}

// Freeze turns everything appended so far into the sealed table,
// partitioned into `shards` shards (clamped to [1, MaxShards]) with up
// to `workers` goroutines (≤0 means GOMAXPROCS): every trial's records
// are routed by ShardOf and stably sorted by ⟨word, subject⟩, then
// each shard counts its sections, allocates its flat payload once,
// fills it in place and views it — the bytes an index file holds and
// the bytes that serve are the same buffer. When trace is non-nil a
// shard's lay-out runs inside trace(shard, fn) on its worker
// goroutine, which is how the facade attaches per-shard build spans.
// The appenders' runs are consumed; a builder freezes once.
func (b *Builder) Freeze(shards, workers int, trace func(shard int, fn func())) (*ShardedFrozen, error) {
	shards = min(max(shards, 1), MaxShards)
	// parts[sd][ti] holds the sorted, duplicate-free records of one
	// ⟨shard, trial⟩. Trials are independent, so routing and sorting
	// parallelize over them for any shard count.
	parts := make([][][]record, shards)
	for sd := range parts {
		parts[sd] = make([][]record, b.trials)
	}
	parallel.ForEach(b.trials, workers, func(ti int) {
		b.route(ti, parts)
		for sd := range parts {
			parts[sd][ti] = sortUnique(parts[sd][ti])
		}
	})
	tables := make([]*FrozenTable, shards)
	errs := make([]error, shards)
	parallel.ForEach(shards, workers, func(sd int) {
		build := func() { tables[sd], errs[sd] = layOut(sd, parts[sd]) }
		if trace != nil {
			trace(sd, build)
		} else {
			build()
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return NewShardedFrozen(tables)
}

// route copies trial ti's records out of every appender, in
// registration order, into parts[shard][ti] — count, then fill — and
// releases the appenders' runs.
func (b *Builder) route(ti int, parts [][][]record) {
	shards := len(parts)
	counts := make([]int, shards)
	for _, a := range b.appenders {
		for _, r := range a.runs[ti] {
			counts[ShardOf(ti, r.word, shards)]++
		}
	}
	for sd, n := range counts {
		parts[sd][ti] = make([]record, 0, n)
	}
	for _, a := range b.appenders {
		for _, r := range a.runs[ti] {
			sd := ShardOf(ti, r.word, shards)
			parts[sd][ti] = append(parts[sd][ti], r)
		}
		a.runs[ti] = nil
	}
}

// sortUnique sorts recs by ⟨word, subject⟩ and drops all but the first
// record of each pair. The sort is stable, so "first" is first
// appended: a word a subject sketched twice keeps its first anchor.
func sortUnique(recs []record) []record {
	slices.SortStableFunc(recs, func(x, y record) int {
		if c := cmp.Compare(x.word, y.word); c != 0 {
			return c
		}
		return cmp.Compare(x.subject, y.subject)
	})
	return slices.CompactFunc(recs, func(x, y record) bool {
		return x.word == y.word && x.subject == y.subject
	})
}

// maxFlatCount bounds every per-trial count of the flat payload:
// offsets and bucket bounds are stored as int32.
const maxFlatCount = 1<<31 - 1

// checkTrialLimits refuses a ⟨shard, trial⟩ too large for the
// payload's 32-bit counts, naming it, instead of letting a narrowing
// conversion wrap into a corrupt directory.
func checkTrialLimits(shard, trial int, nwords, npostings, nbuckets int64) error {
	if nwords > maxFlatCount || npostings > maxFlatCount || nbuckets > maxFlatCount {
		return fmt.Errorf("sketch: shard %d trial %d holds %d words, %d postings and %d directory buckets; a trial of one shard is limited to %d of each — use more shards",
			shard, trial, nwords, npostings, nbuckets, maxFlatCount)
	}
	return nil
}

// bucketGeometry sizes the radix bucket directory over n sorted words
// whose largest is last: ~4 buckets per word (rounded to a power of
// two, capped by the words' bit length), which costs about twice the
// memory of the word array and leaves almost every bucket a singleton.
// nbuckets counts the stored bounds, one more than the buckets.
func bucketGeometry(n int64, last kmer.Word) (nbuckets int64, shift uint32) {
	if n == 0 {
		return 0, 0
	}
	bitlen := bits.Len64(uint64(last))
	b := min(bits.Len64(uint64(4*n-1)), bitlen)
	return 1<<b + 1, uint32(bitlen - b)
}

// layOut builds shard sd's table from its per-trial sorted unique
// records: one counting pass sizes every section, the payload is
// allocated once, and words, offsets, postings and the bucket
// directory are written where the JEMIDX06 layout puts them (see
// flat.go). The table is then the view over those bytes, like any
// loaded one.
func layOut(sd int, trials [][]record) (*FrozenTable, error) {
	dirs := make([]flatTrialDir, len(trials))
	off := align8(int64(4 + flatDirEntrySize*len(trials)))
	for ti, recs := range trials {
		var nwords int64
		for i := range recs {
			if i == 0 || recs[i].word != recs[i-1].word {
				nwords++
			}
		}
		var last kmer.Word
		if len(recs) > 0 {
			last = recs[len(recs)-1].word
		}
		nbuckets, shift := bucketGeometry(nwords, last)
		if err := checkTrialLimits(sd, ti, nwords, int64(len(recs)), nbuckets); err != nil {
			return nil, err
		}
		d := &dirs[ti]
		d.nwords, d.npostings, d.nbuckets, d.shift = uint32(nwords), uint32(len(recs)), uint32(nbuckets), shift
		d.wordsOff = uint64(off)
		off += nwords * 8
		d.offsets = uint64(off)
		off = align8(off + (nwords+1)*4)
		d.postings = uint64(off)
		off += int64(len(recs)) * 8
		d.buckets = uint64(off)
		off = align8(off + nbuckets*4)
	}
	buf := alignedBytes(off)
	le := binary.LittleEndian
	le.PutUint32(buf, uint32(len(trials)))
	for ti, recs := range trials {
		d := &dirs[ti]
		d.put(buf[4+flatDirEntrySize*ti:])
		words, offsets, postings, buckets := buf[d.wordsOff:], buf[d.offsets:], buf[d.postings:], buf[d.buckets:]
		nw, nextBucket := 0, uint64(0)
		for i, r := range recs {
			if i == 0 || r.word != recs[i-1].word {
				le.PutUint64(words[8*nw:], uint64(r.word))
				le.PutUint32(offsets[4*nw:], uint32(i))
				// Bucket v's bound is the first word whose value >> shift
				// reaches v.
				for ; nextBucket <= uint64(r.word)>>d.shift; nextBucket++ {
					le.PutUint32(buckets[4*nextBucket:], uint32(nw))
				}
				nw++
			}
			le.PutUint32(postings[8*i:], uint32(r.subject))
			le.PutUint32(postings[8*i+4:], uint32(r.anchor))
		}
		le.PutUint32(offsets[4*nw:], uint32(len(recs)))
		for ; nextBucket < uint64(d.nbuckets); nextBucket++ {
			le.PutUint32(buckets[4*nextBucket:], uint32(nw))
		}
	}
	return ViewFlatFrozen(buf, false)
}
