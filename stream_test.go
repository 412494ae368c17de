package jem_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro"
	"repro/internal/fault"
)

func TestMapStreamMatchesMapReads(t *testing.T) {
	fault.LeakCheck(t)
	ds := buildSmallDataset(t)
	opts := jem.DefaultOptions()
	mapper, err := jem.NewMapper(ds.Contigs, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Serialize the reads to FASTQ, then map them as a stream.
	var reads bytes.Buffer
	if err := writeFASTQ(&reads, ds.Reads); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	stats, err := streamAll(mapper, &reads, &out)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reads != len(ds.Reads) {
		t.Errorf("stream saw %d reads, want %d", stats.Reads, len(ds.Reads))
	}
	if stats.Segments != 2*len(ds.Reads) {
		t.Errorf("stream mapped %d segments, want %d", stats.Segments, 2*len(ds.Reads))
	}
	// The streamed TSV must parse back to exactly the in-memory result.
	parsed, err := jem.ReadTSV(&out, ds.Reads, ds.Contigs)
	if err != nil {
		t.Fatal(err)
	}
	want := mapAll(mapper, ds.Reads)
	if !reflect.DeepEqual(parsed, want) {
		t.Error("streamed mappings differ from in-memory mappings")
	}
	mappedWant := 0
	for _, m := range want {
		if m.Mapped {
			mappedWant++
		}
	}
	if stats.Mapped != mappedWant {
		t.Errorf("stats.Mapped = %d want %d", stats.Mapped, mappedWant)
	}
	if stats.PostingsScanned <= 0 {
		t.Errorf("stats.PostingsScanned = %d, want > 0", stats.PostingsScanned)
	}
}

// errAfterReader yields its payload, then a non-EOF error — a
// mid-stream failure (truncated download, dropped NFS mount) after N
// complete records.
type errAfterReader struct {
	payload io.Reader
	err     error
}

func (r *errAfterReader) Read(p []byte) (int, error) {
	n, err := r.payload.Read(p)
	if err == io.EOF {
		return n, r.err
	}
	return n, err
}

// TestMapStreamFlushesOnReaderError pins the mid-stream error
// contract: every record read before the failure is still mapped,
// written, and counted; only then is the error returned.
func TestMapStreamFlushesOnReaderError(t *testing.T) {
	fault.LeakCheck(t)
	ds := buildSmallDataset(t)
	mapper, err := jem.NewMapper(ds.Contigs, jem.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var reads bytes.Buffer
	if err := writeFASTQ(&reads, ds.Reads); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("stream died mid-flight")
	var out bytes.Buffer
	stats, err := streamAll(mapper, &errAfterReader{payload: &reads, err: boom}, &out)
	if err == nil {
		t.Fatal("reader error was swallowed")
	}
	if !errors.Is(err, boom) && !strings.Contains(err.Error(), boom.Error()) {
		t.Fatalf("got error %v, want the reader's", err)
	}
	if stats.Reads != len(ds.Reads) {
		t.Errorf("stats.Reads = %d, want %d (records before the error)", stats.Reads, len(ds.Reads))
	}
	if stats.Segments != 2*len(ds.Reads) {
		t.Errorf("stats.Segments = %d, want %d", stats.Segments, 2*len(ds.Reads))
	}
	// Every pre-error record must have produced its TSV rows.
	lines := strings.Count(out.String(), "\n")
	if lines != 1+2*len(ds.Reads) {
		t.Errorf("wrote %d lines, want header + %d rows", lines, 2*len(ds.Reads))
	}
	parsed, err := jem.ReadTSV(&out, ds.Reads, ds.Contigs)
	if err != nil {
		t.Fatal(err)
	}
	if want := mapAll(mapper, ds.Reads); !reflect.DeepEqual(parsed, want) {
		t.Error("pre-error mappings differ from in-memory mappings")
	}
}

// failAfterWriter accepts n writes, then fails every later one — a
// disk-full / closed-pipe stand-in.
type failAfterWriter struct {
	n   int
	err error
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, w.err
	}
	w.n--
	return len(p), nil
}

// TestMapStreamCountsAfterWriteError pins the accounting contract on
// the write-error path: output stops, but every batch the workers
// mapped is still drained AND counted, so Stats reflects the mapping
// work actually done. (The pre-fix code skipped counting for batches
// drained after the error, undercounting Segments/Mapped.)
func TestMapStreamCountsAfterWriteError(t *testing.T) {
	fault.LeakCheck(t)
	ds := buildSmallDataset(t)
	mapper, err := jem.NewMapper(ds.Contigs, jem.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var reads bytes.Buffer
	if err := writeFASTQ(&reads, ds.Reads); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	// Allow the header and the first row, then fail.
	stats, err := streamAll(mapper, &reads, &failAfterWriter{n: 2, err: boom})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the write error", err)
	}
	if stats.Reads != len(ds.Reads) {
		t.Errorf("stats.Reads = %d, want %d", stats.Reads, len(ds.Reads))
	}
	if want := 2 * len(ds.Reads); stats.Segments != want {
		t.Errorf("stats.Segments = %d, want %d (write errors must not drop accounting)", stats.Segments, want)
	}
	mappedWant := 0
	for _, m := range mapAll(mapper, ds.Reads) {
		if m.Mapped {
			mappedWant++
		}
	}
	if stats.Mapped != mappedWant {
		t.Errorf("stats.Mapped = %d, want %d", stats.Mapped, mappedWant)
	}
}

func TestMapStreamEmptyInput(t *testing.T) {
	ds := buildSmallDataset(t)
	mapper, err := jem.NewMapper(ds.Contigs, jem.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	stats, err := streamAll(mapper, bytes.NewReader(nil), &out)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reads != 0 || stats.Segments != 0 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestMapStreamMalformedInput(t *testing.T) {
	ds := buildSmallDataset(t)
	mapper, err := jem.NewMapper(ds.Contigs, jem.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := streamAll(mapper, bytes.NewReader([]byte("@broken\nACGT\nIIII\n")), &out); err == nil {
		t.Error("malformed FASTQ should fail")
	}
}

// writeFASTQ is a tiny local helper so the test controls exactly what
// bytes enter the stream.
func writeFASTQ(buf *bytes.Buffer, records []jem.Record) error {
	for _, r := range records {
		if r.Desc != "" {
			if _, err := buf.WriteString("@" + r.ID + " " + r.Desc + "\n"); err != nil {
				return err
			}
		} else {
			if _, err := buf.WriteString("@" + r.ID + "\n"); err != nil {
				return err
			}
		}
		buf.Write(r.Seq)
		buf.WriteString("\n+\n")
		for range r.Seq {
			buf.WriteByte('I')
		}
		buf.WriteByte('\n')
	}
	return nil
}

// TestStreamAllocsPerRead pins the ingest's allocation budget. Stream's
// reader only cuts record-aligned chunks and its workers read a
// record's ID and its two ℓ-long ends in place, so a warm Stream costs
// a batch's ID string and row slice and the call's fixed set-up: far
// below one heap allocation per read, where the line-at-a-time parser
// it replaced paid ≈7 per read. Both legs run at Workers: 2: reads
// longer than 2ℓ (two ends each) and reads of at most ℓ (one segment).
func TestStreamAllocsPerRead(t *testing.T) {
	ds := buildSmallDataset(t)
	opts := jem.DefaultOptions()
	mapper, err := jem.NewMapper(ds.Contigs, opts)
	if err != nil {
		t.Fatal(err)
	}
	l := opts.SegmentLen
	var long, short []jem.Record
	for i := 0; len(long) < 512; i++ {
		r := ds.Reads[i%len(ds.Reads)]
		if len(r.Seq) <= 2*l {
			continue
		}
		id := r.ID + "_" + strconv.Itoa(i)
		long = append(long, jem.Record{ID: id, Seq: r.Seq})
		short = append(short, jem.Record{ID: id, Seq: r.Seq[:l]})
	}
	for _, leg := range []struct {
		name  string
		reads []jem.Record
	}{{"long", long}, {"short", short}} {
		var in bytes.Buffer
		if err := writeFASTQ(&in, leg.reads); err != nil {
			t.Fatal(err)
		}
		run := func() {
			if _, err := mapper.Stream(context.Background(), bytes.NewReader(in.Bytes()), io.Discard, jem.StreamOptions{Workers: 2}); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm: sessions, the index's lazy state
		const calls = 4
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range calls {
			run()
		}
		runtime.ReadMemStats(&after)
		perRead := float64(after.Mallocs-before.Mallocs) / float64(calls*len(leg.reads))
		t.Logf("%s reads: %.3f allocations per read", leg.name, perRead)
		if perRead > 0.5 {
			t.Errorf("%s reads: %.2f allocations per read, want ≤ 0.5", leg.name, perRead)
		}
	}
}
