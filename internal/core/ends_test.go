package core

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/seq"
)

type fakeSession struct{}

func endReads(lengths ...int) []seq.Record {
	reads := make([]seq.Record, len(lengths))
	for i, n := range lengths {
		reads[i] = seq.Record{ID: string(rune('a' + i)), Seq: make([]byte, n)}
	}
	return reads
}

func echoEnd(_ *fakeSession, e End) End { return e }

// TestMapEndsOrderAndShape: rows come back in (read, end) order with
// the prefix/suffix split and offsets of EndSegments, at any worker
// count.
func TestMapEndsOrderAndShape(t *testing.T) {
	reads := endReads(5, 12, 0, 10, 11, 3)
	var want []End
	for i, r := range reads {
		segs, kinds := EndSegments(r.Seq, 10)
		for s := range segs {
			e := End{Read: i, ID: r.ID, Kind: kinds[s], Seq: segs[s]}
			if kinds[s] == Suffix {
				e.Offset = len(r.Seq) - 10
			}
			want = append(want, e)
		}
	}
	for _, w := range []int{1, 2, 4, 16} {
		got, _, err := MapEnds(context.Background(), reads, 10, w, func() *fakeSession { return &fakeSession{} }, echoEnd)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("W=%d: rows %+v, want %+v", w, got, want)
		}
	}
}

// TestMapEndsSessionCount: one session per worker, never more than
// there are reads, and one even for no reads.
func TestMapEndsSessionCount(t *testing.T) {
	for _, c := range []struct{ reads, workers, want int }{
		{0, 4, 1}, {1, 4, 1}, {2, 4, 2}, {10, 3, 3}, {10, 1, 1},
	} {
		made := 0
		_, _, err := MapEnds(context.Background(), endReads(make([]int, c.reads)...), 10, c.workers,
			func() *fakeSession { made++; return &fakeSession{} }, echoEnd)
		if err != nil {
			t.Fatal(err)
		}
		if made != c.want {
			t.Errorf("%d reads, %d workers: %d sessions, want %d", c.reads, c.workers, made, c.want)
		}
	}
}

// TestMapEndsCancelReturnsPrefix: once ctx is done no further read is
// mapped, and the rows of the reads completed so far come back in
// order with ctx.Err().
func TestMapEndsCancelReturnsPrefix(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reads := endReads(20, 20, 20, 20, 20)
	var mapped atomic.Int32
	rows, _, err := MapEnds(ctx, reads, 10, 1, func() *fakeSession { return &fakeSession{} },
		func(s *fakeSession, e End) End {
			if e.Read == 2 && e.Kind == Suffix {
				cancel()
			}
			mapped.Add(1)
			return e
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	if len(rows) != 6 || mapped.Load() != 6 {
		t.Fatalf("%d rows (%d mapped), want the 6 rows of reads 0–2", len(rows), mapped.Load())
	}
	for i, r := range rows {
		if r.Read != i/2 {
			t.Fatalf("row %d belongs to read %d", i, r.Read)
		}
	}
}
