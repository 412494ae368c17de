package core

import (
	"context"

	"repro/internal/parallel"
	"repro/internal/seq"
)

// End is one end segment of a read, as the read-set driver hands it
// to a row function.
type End struct {
	Read   int         // index of the read in its read set
	ID     string      // the read's record ID
	Kind   SegmentKind // which end
	Offset int         // where Seq starts on the read
	Seq    []byte      // the segment's bases
}

// Result is the row of e for its best hit h; ok=false (no sketch, or
// no subject hit) gives the unmapped row.
func (e End) Result(h Hit, ok bool) Result {
	r := Result{ReadIndex: int32(e.Read), Kind: e.Kind, Subject: -1}
	if ok {
		r.Subject, r.Count = h.Subject, h.Count
	}
	return r
}

// MapEnd maps one end segment to its Result — the row function of
// MapReads and of the simulated ranks.
func (s *Session) MapEnd(e End) Result {
	h, ok := s.MapSegment(e.Seq)
	return e.Result(h, ok)
}

// EndSegments returns the prefix and suffix segments of length l of a
// read. For reads of length ≤ l a single segment (the whole read,
// reported as Prefix) is returned, matching the degenerate case where
// both ends coincide.
func EndSegments(read []byte, l int) (segments [][]byte, kinds []SegmentKind) {
	if len(read) <= l {
		return [][]byte{read}, []SegmentKind{Prefix}
	}
	return [][]byte{read[:l], read[len(read)-l:]}, []SegmentKind{Prefix, Suffix}
}

// AppendEnds is the serial read-set step: it splits read (index i of
// its read set) into its end segments with EndSegments and appends one
// row per end, prefix first, computed by row on sess.
func AppendEnds[S, R any](rows []R, sess S, i int, read seq.Record, l int, row func(S, End) R) []R {
	segs, kinds := EndSegments(read.Seq, l)
	for s, seg := range segs {
		e := End{Read: i, ID: read.ID, Kind: kinds[s], Seq: seg}
		if e.Kind == Suffix {
			e.Offset = len(read.Seq) - l
		}
		rows = append(rows, row(sess, e))
	}
	return rows
}

// MapEnds is the parallel read-set driver (Alg. 2 over every end
// segment of Q): it maps reads on up to `workers` goroutines (≤0 means
// GOMAXPROCS), each with its own session from newSession, and returns
// the rows in (read, end) order and the sessions, idle by then, so a
// caller can read what they did.
//
// Sessions are made on the calling goroutine — one per worker, at most
// len(reads) and at least one even for no reads — so a constructor
// that panics on misuse panics there. When ctx is done the workers
// stop taking reads and the rows of every read completed so far come
// back, still in order, with ctx.Err().
func MapEnds[S, R any](ctx context.Context, reads []seq.Record, l, workers int, newSession func() S, row func(S, End) R) ([]R, []S, error) {
	done := ctx.Done()
	rows := make([]R, 2*len(reads))
	ends := make([]int8, len(reads)) // rows read i produced; 0 = not mapped
	sessions := parallel.ForEachWorker(len(reads), workers, newSession, func(s S, i int) {
		select {
		case <-done:
			return
		default:
		}
		ends[i] = int8(len(AppendEnds(rows[2*i:2*i:2*i+2], s, i, reads[i], l, row)))
	})
	n := 0
	for i, k := range ends {
		n += copy(rows[n:], rows[2*i:2*i+int(k)])
	}
	return rows[:n], sessions, ctx.Err()
}

// MapReads maps both end segments of every read through MapEnds and
// returns the per-segment results in (read, kind) order, under MapEnds'
// cancellation contract.
func (m *Mapper) MapReads(ctx context.Context, reads []seq.Record, l, workers int) ([]Result, error) {
	rows, _, err := MapEnds(ctx, reads, l, workers, func() *Session { return m.NewSession().WithContext(ctx) }, (*Session).MapEnd)
	return rows, err
}
