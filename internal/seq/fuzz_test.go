package seq

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"
)

// FuzzReader asserts the parser never panics and that whatever it
// accepts survives a write/re-read round trip.
func FuzzReader(f *testing.F) {
	f.Add([]byte(">r1 desc\nACGT\nACGT\n"))
	f.Add([]byte("@q1\nACGT\n+\nIIII\n"))
	f.Add([]byte(">only-header\n"))
	f.Add([]byte("@broken\nACGT\nIIII\n"))
	f.Add([]byte("\n\n>x\nNNNN\n"))
	f.Add([]byte(">a\nacgt\n>b\nTTTT"))
	f.Add([]byte{0, '>', 0xFF, '\n'})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := NewReader(bytes.NewReader(data)).ReadAll()
		if err != nil {
			return
		}
		for i := range recs {
			if recs[i].Qual != nil && len(recs[i].Qual) != len(recs[i].Seq) {
				t.Fatalf("accepted record with mismatched qual: %+v", recs[i])
			}
		}
		// Round trip what was accepted.
		var buf bytes.Buffer
		if err := WriteFASTA(&buf, recs, 60); err != nil {
			t.Fatal(err)
		}
		again, err := NewReader(&buf).ReadAll()
		if err != nil && len(recs) > 0 {
			// Records with empty IDs or empty sequences may not round
			// trip cleanly; only structural panics are bugs.
			return
		}
		if len(again) > len(recs) {
			t.Fatalf("round trip grew records: %d -> %d", len(recs), len(again))
		}
	})
}

// FuzzChunkedReader holds the cutter to the line-at-a-time parser it
// replaced (oracleReader). The same bytes go to both behind readers
// that return random short reads, 1 byte up to a chunk, and may end in
// an I/O error instead of EOF. Under the fail and the skip policy (skip:
// Resync after each RecordError) both must give the same records, the
// same error texts, the same line numbers and the same Resync
// landings — through Read, and through Cut with the chunks handed off
// in batches as Stream does.
func FuzzChunkedReader(f *testing.F) {
	long := bytes.Repeat([]byte("acgtn"), (chunkSize+999)/5)
	for _, in := range [][]byte{
		// FuzzReader's seeds and corpus.
		[]byte(">r1 desc\nACGT\nACGT\n"),
		[]byte("@q1\nACGT\n+\nIIII\n"),
		[]byte(">only-header\n"),
		[]byte("@broken\nACGT\nIIII\n"),
		[]byte("\n\n>x\nNNNN\n"),
		[]byte(">a\nacgt\n>b\nTTTT"),
		{0, '>', 0xFF, '\n'},
		[]byte(">\n >"),
		// FuzzMapStream's seeds.
		[]byte("@r1\nACGTTGCAACACGTTGCAAC\n+\nIIIIIIIIIIIIIIIIIIII\n"),
		[]byte("@r1\nACGT\n+\n"),
		[]byte("@r1\nACGT\nIIII\n@r2\nAC\n"),
		[]byte(">a\n>b\nACGT\n>c"),
		[]byte("@\n\n+\n\n@@@\n@@@\nzz\n"),
		[]byte("no header at all\nACGT\n"),
		{0, '>', 'x', '\n', 0xff, 0xfe},
		// CRLF, blank lines, a no-break space (which bytes.TrimSpace
		// trims), an '@'-led quality line, tabs in a header.
		[]byte("@q1\r\nACGT\r\n+\r\nIIII\r\n\r\n\r\n@q2\r\nAC\r\n+\r\nII\r\n"),
		[]byte("\n \n>a d\t e \n\nAC \n GT\r\n\n>b\nAAAA\n\n"),
		[]byte("@q\xc2\xa0x\n\xc2\xa0ACGT\xc2\xa0\n+\n IIII\n"),
		[]byte("@q1\nACGT\n+\n@III\n@q2\nAC\n+\n@I\n"),
		[]byte("@a\tb c\nAC\n+\nII\n@\t\nA\n+\nI"),
		// Records longer than a chunk: one FASTQ line, and FASTA lines.
		append(append(append(append([]byte("@long\n"), long...), "\n+\n"...), bytes.Repeat([]byte("I"), len(long))...), "\n@s\nA\n+\nI\n"...),
		append(append([]byte(">long\n"), bytes.Join(bytes.SplitAfter(long, []byte("acgtnacgtn")), []byte("\n"))...), "\n>s\nA\n"...),
	} {
		f.Add(in, int64(len(in)))
	}
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		for _, skip := range []bool{false, true} {
			src := func(salt int64) io.Reader { return newChopReader(data, seed, salt) }
			want := readEvents(newOracleReader(src(0)), skip, len(data))
			if got := readEvents(NewReader(src(1)), skip, len(data)); !reflect.DeepEqual(got, want) {
				t.Fatalf("skip=%v: Read\n got %q\nwant %q\ninput %q", skip, got, want, data)
			}
			c := &chunked{t: t, r: NewReader(src(2)), k: 1 + int(uint64(seed)%5)}
			got := readEvents(c, skip, len(data))
			c.handOff()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("skip=%v: Cut in batches of %d\n got %q\nwant %q\ninput %q", skip, c.k, got, want, data)
			}
		}
	})
}

// recordReader is what readEvents drives: a Reader, the oracle, or
// Cut behind chunked.
type recordReader interface {
	Read() (Record, error)
	Resync() error
	Line() int
}

// readEvents reads r to its end — or to its first error under the fail
// policy, or its first non-record error under skip — and returns one
// line per record, error and Resync, each with the reader's line.
func readEvents(r recordReader, skip bool, n int) []string {
	var out []string
	for range 2*n + 4 { // each step consumes a line or a byte
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			out = append(out, fmt.Sprintf("error %d %t %v", r.Line(), IsRecordError(err), err))
			if !skip || !IsRecordError(err) {
				break
			}
			rerr := r.Resync()
			out = append(out, fmt.Sprintf("resync %d %v", r.Line(), rerr))
			if rerr != nil {
				break
			}
			continue
		}
		out = append(out, fmt.Sprintf("record %d %q %q %q %q %t", r.Line(), rec.ID, rec.Desc, rec.Seq, rec.Qual, rec.Qual == nil))
	}
	return out
}

// chunked reads through Cut the way Stream does: it collects the spans
// of k records, then hands their chunk off with Chunk and checks that
// every span still reads back the record it was cut as, however the
// chunk grew or later records were cut after it. The checked chunk is
// scribbled over and handed back as a later Chunk call's next.
type chunked struct {
	t     *testing.T
	r     *Reader
	k     int
	spans []Span
	recs  []Record
	spare []byte
}

func (c *chunked) Read() (Record, error) {
	sp, err := c.r.Cut()
	if err != nil {
		return Record{}, err
	}
	rec := spanRecord(c.r.buf, sp, c.r.format)
	c.spans, c.recs = append(c.spans, sp), append(c.recs, rec)
	if len(c.spans) == c.k {
		c.handOff()
	}
	return rec, nil
}

func (c *chunked) handOff() {
	chunk := c.r.Chunk(c.spare)
	for i, sp := range c.spans {
		if got := spanRecord(chunk, sp, c.r.format); !reflect.DeepEqual(got, c.recs[i]) {
			c.t.Fatalf("handed-off chunk reads %+v, cut as %+v", got, c.recs[i])
		}
	}
	for i := range chunk {
		chunk[i] = 'x'
	}
	c.spans, c.recs, c.spare = c.spans[:0], c.recs[:0], chunk
}

func (c *chunked) Resync() error { return c.r.Resync() }
func (c *chunked) Line() int     { return c.r.line }

// spanRecord is the Record that Read makes of sp.
func spanRecord(chunk []byte, sp Span, format Format) Record {
	rec := Record{ID: string(sp.ID.Of(chunk)), Desc: string(sp.Desc.Of(chunk)),
		Seq: Upper(append([]byte(nil), sp.Seq.Of(chunk)...))}
	if format == FormatFASTQ {
		rec.Qual = append([]byte(nil), sp.Qual.Of(chunk)...)
	}
	return rec
}

// chopReader serves data in reads of 1 up to max bytes, max a power of
// two up to a chunk picked by seed, sizes drawn from seed and salt.
// When seed is odd the data ends in an I/O error, repeated on every
// later Read, instead of io.EOF.
type chopReader struct {
	data []byte
	rng  *rand.Rand
	max  int
	end  error
}

var errChop = errors.New("chop: injected read error")

func newChopReader(data []byte, seed, salt int64) *chopReader {
	c := &chopReader{data: data, rng: rand.New(rand.NewSource(seed + salt)), max: 1 << (uint64(seed) % 17), end: io.EOF}
	if seed%2 != 0 {
		c.end = errChop
	}
	return c
}

func (c *chopReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, c.end
	}
	n := copy(p[:min(len(p), 1+c.rng.Intn(c.max))], c.data)
	c.data = c.data[n:]
	return n, nil
}
