package seq

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// RecordError is a structural parse error in FASTA/FASTQ input — a
// malformed or truncated record — as opposed to an I/O failure of the
// underlying stream. Streaming callers use the distinction to skip or
// quarantine bad records and continue (via Resync); an error that is
// NOT a RecordError means the stream itself is broken and cannot be
// resumed.
type RecordError struct {
	// Line is the 1-based input line where the problem was detected.
	Line int
	// ID is the record's ID when the header had been parsed, else "".
	ID string
	// Msg describes the structural problem.
	Msg string
}

func (e *RecordError) Error() string {
	if e.ID != "" {
		return fmt.Sprintf("seq: line %d: record %q: %s", e.Line, e.ID, e.Msg)
	}
	return fmt.Sprintf("seq: line %d: %s", e.Line, e.Msg)
}

// IsRecordError reports whether err is (or wraps) a RecordError.
func IsRecordError(err error) bool {
	var re *RecordError
	return errors.As(err, &re)
}

// Format identifies a sequence file format.
type Format int

const (
	// FormatUnknown is returned when the format cannot be sniffed.
	FormatUnknown Format = iota
	// FormatFASTA is the '>'-header format.
	FormatFASTA
	// FormatFASTQ is the 4-line '@'-header format.
	FormatFASTQ
)

func (f Format) String() string {
	switch f {
	case FormatFASTA:
		return "fasta"
	case FormatFASTQ:
		return "fastq"
	default:
		return "unknown"
	}
}

// Reader cuts FASTA or FASTQ input, its format sniffed from the first
// non-blank byte, into records. Read returns each as a Record of its
// own, copied out and upper-cased. Cut copies no base: it returns the
// next record as a Span of the chunk buffer it was cut into, and Chunk
// hands that buffer off, so a pipeline can pass a batch of records to a
// worker as one buffer plus their spans.
type Reader struct {
	src    io.Reader
	buf    []byte // the chunk: buf[:off] consumed, buf[off:] read ahead
	off    int
	err    error // of the last src.Read, returned once after its bytes, as by bufio.Reader
	format Format
	line   int
	// MaxLen, when > 0, makes a record longer than MaxLen bases a
	// RecordError, reported on the record's last line.
	MaxLen int
}

// chunkSize is a new chunk's capacity and the most one src.Read asks
// for, which bounds the read-ahead a chunk hands on.
const chunkSize = 1 << 16

// NewReader wraps r in a sequence Reader.
func NewReader(r io.Reader) *Reader {
	return &Reader{src: r, buf: make([]byte, 0, chunkSize)}
}

// Span is a record cut by Cut, as ranges of its chunk: ID and Desc
// split from the header as Record's are, Seq the trimmed sequence in
// input case (a multi-line FASTA record's lines joined in place), Qual
// the trimmed quality line.
type Span struct{ ID, Desc, Seq, Qual Range }

// Range is the byte range [Lo, Hi) of a chunk.
type Range struct{ Lo, Hi int }

// Len returns the range's length.
func (g Range) Len() int { return g.Hi - g.Lo }

// Of returns the range's bytes of chunk.
func (g Range) Of(chunk []byte) []byte { return chunk[g.Lo:g.Hi] }

// Line returns the 1-based number of the last input line consumed —
// after a failed Read or Cut, the line where the problem was detected.
func (r *Reader) Line() int { return r.line }

// Chunk returns the chunk every Span cut since the last Chunk call
// indexes into: whole records, whose bytes its owner may rewrite.
// Cutting goes on in next's storage or, when next is too small for the
// input read ahead, in a new buffer as large as the chunk handed off.
func (r *Reader) Chunk(next []byte) []byte {
	chunk, ahead := r.buf[:r.off], r.buf[r.off:]
	if cap(next) < len(ahead) {
		next = make([]byte, 0, max(len(ahead), cap(r.buf)))
	}
	r.buf, r.off = append(next[:0], ahead...), 0
	return chunk
}

// fill reads once into buf unless a read error is pending, first
// growing a full buf. Growth keeps every offset, so a chunk grows only
// while its batch or one record does not fit. It reports whether it
// read.
func (r *Reader) fill() bool {
	if r.err != nil {
		return false
	}
	if len(r.buf) == cap(r.buf) {
		r.buf = append(make([]byte, 0, max(2*cap(r.buf), chunkSize)), r.buf...)
	}
	free := r.buf[len(r.buf):min(cap(r.buf), len(r.buf)+chunkSize)]
	for range 100 { // bufio's bound on reads that return nothing
		n, err := r.src.Read(free)
		if r.buf, r.err = r.buf[:len(r.buf)+n], err; n > 0 || err != nil {
			return true
		}
	}
	r.err = io.ErrNoProgress
	return true
}

// peek returns the next unconsumed byte, reading for one if need be, or
// else the pending read error, which it clears.
func (r *Reader) peek() (b byte, err error) {
	for r.off == len(r.buf) {
		if !r.fill() {
			err, r.err = r.err, nil
			return 0, err
		}
	}
	return r.buf[r.off], nil
}

// readLine consumes one line, as bufio.Reader.ReadBytes('\n') does, and
// returns its bounds without the trailing '\r' and '\n' bytes. err is
// io.EOF only when no line was left; an I/O error comes with the
// partial line before it.
func (r *Reader) readLine() (lo, hi int, err error) {
	lo, hi = r.off, r.off
	for {
		if i := bytes.IndexByte(r.buf[hi:], '\n'); i >= 0 {
			hi += i + 1
			break
		}
		if hi = len(r.buf); !r.fill() {
			err, r.err = r.err, nil
			break
		}
	}
	if hi == lo {
		return lo, hi, err
	}
	r.off = hi
	r.line++
	for hi > lo && (r.buf[hi-1] == '\n' || r.buf[hi-1] == '\r') {
		hi--
	}
	if err == io.EOF {
		err = nil
	}
	return lo, hi, err
}

// Resync discards input up to the next plausible record start — a line
// beginning with the format's header byte ('>' for FASTA, '@' for
// FASTQ, either while the format is still unknown) — so a caller that
// chose to skip a malformed record (a RecordError) can continue. It
// returns io.EOF when the input ends first. A FASTQ quality line may
// begin with '@', so Resync can land on a non-header line; the next
// record is then another RecordError. Every failed Read/Resync pair
// consumes at least a line or a byte, so a skip loop terminates.
func (r *Reader) Resync() error {
	for {
		b, err := r.peek()
		switch {
		case err != nil:
			return err
		case r.format == FormatFASTA && b == '>', r.format == FormatFASTQ && b == '@',
			r.format == FormatUnknown && (b == '>' || b == '@'):
			return nil
		}
		if _, _, err := r.readLine(); err != nil && err != io.EOF {
			return err
		}
	}
}

// trim returns the bounds of bytes.TrimSpace(buf[lo:hi]).
func trim(buf []byte, lo, hi int) Range {
	t := bytes.TrimSpace(buf[lo:hi])
	if len(t) == 0 {
		return Range{lo, lo}
	}
	lo += cap(buf[lo:hi]) - cap(t) // t is a subslice: where it starts
	return Range{lo, lo + len(t)}
}

// errorf is a RecordError on the current line, in the record with
// header ID id (the zero Range: none parsed yet).
func (r *Reader) errorf(id Range, format string, args ...any) error {
	return &RecordError{Line: r.line, ID: string(id.Of(r.buf)), Msg: fmt.Sprintf(format, args...)}
}

// Read returns the next record, or io.EOF when the input is exhausted.
func (r *Reader) Read() (Record, error) {
	if r.off >= cap(r.buf)/2 {
		r.Chunk(r.buf) // records returned need no bytes: slide the read-ahead to the front
	}
	sp, err := r.Cut()
	if err != nil {
		return Record{}, err
	}
	rec := Record{ID: string(sp.ID.Of(r.buf)), Desc: string(sp.Desc.Of(r.buf)),
		Seq: Upper(append([]byte(nil), sp.Seq.Of(r.buf)...))}
	if r.format == FormatFASTQ {
		rec.Qual = append([]byte(nil), sp.Qual.Of(r.buf)...)
	}
	return rec, nil
}

// Cut cuts the next record into the current chunk and returns its
// Span, or io.EOF when the input is exhausted. After a RecordError the
// reader stands past the lines the record consumed.
func (r *Reader) Cut() (sp Span, err error) {
	for r.format == FormatUnknown {
		b, err := r.peek()
		switch {
		case err != nil:
			return sp, err
		case b == '>':
			r.format = FormatFASTA
		case b == '@':
			r.format = FormatFASTQ
		default:
			r.off++
			if b != '\n' && b != '\r' && b != ' ' && b != '\t' {
				return sp, &RecordError{Line: r.line + 1, Msg: fmt.Sprintf("cannot sniff format: leading byte %q", b)}
			}
		}
	}
	if r.format == FormatFASTA {
		sp, err = r.cutFASTA()
	} else {
		sp, err = r.cutFASTQ()
	}
	if err == nil && r.MaxLen > 0 && sp.Seq.Len() > r.MaxLen {
		err = r.errorf(sp.ID, "record length %d exceeds limit %d", sp.Seq.Len(), r.MaxLen)
	}
	return sp, err
}

// header consumes blank lines and a header line, which must begin with
// mark, and splits the header's trimmed text into the first space- or
// tab-delimited token, the ID, and the trimmed rest, the Desc.
func (r *Reader) header(mark byte, format string) (sp Span, err error) {
	lo, hi := 0, 0
	for hi == lo {
		if lo, hi, err = r.readLine(); hi == lo && err != nil {
			return sp, err
		}
	}
	if r.buf[lo] != mark {
		return sp, r.errorf(Range{}, "expected %s header, got %q", format, r.buf[lo:hi])
	}
	sp.ID = trim(r.buf, lo+1, hi)
	if i := bytes.IndexAny(sp.ID.Of(r.buf), " \t"); i >= 0 {
		sp.ID, sp.Desc = Range{sp.ID.Lo, sp.ID.Lo + i}, trim(r.buf, sp.ID.Lo+i+1, sp.ID.Hi)
	}
	return sp, nil
}

// cutFASTA cuts a header line and the sequence lines up to the next
// '>' line or EOF, moving each line's trimmed payload back over the
// line ends and padding before it.
func (r *Reader) cutFASTA() (Span, error) {
	sp, err := r.header('>', "FASTA")
	if err != nil {
		return sp, err
	}
	sp.Seq = Range{r.off, r.off}
	for {
		b, err := r.peek()
		switch {
		case err == io.EOF && sp.Seq.Len() == 0:
			// A header whose sequence never arrived before EOF is a
			// truncated record (chopped download, partial write) —
			// reporting it beats silently serving an empty sequence.
			return sp, r.errorf(sp.ID, "truncated FASTA record: header without sequence data at EOF")
		case err == io.EOF:
			return sp, nil
		case err != nil:
			return sp, err
		case b == '>':
			return sp, nil
		}
		lo, hi, err := r.readLine()
		if err != nil {
			return sp, err
		}
		payload := trim(r.buf, lo, hi).Of(r.buf)
		// A '>' inside sequence data means a malformed record (e.g. a
		// header preceded by whitespace); accepting it would corrupt
		// the stream on a write/read round trip.
		if bytes.IndexByte(payload, '>') >= 0 {
			return sp, r.errorf(sp.ID, "'>' inside sequence data")
		}
		sp.Seq.Hi += copy(r.buf[sp.Seq.Hi:], payload)
	}
}

// fastqLines names the lines after a FASTQ header.
var fastqLines = [3]string{"sequence", "'+' separator", "quality"}

// cutFASTQ is the cutter's record loop over FASTQ, the long-read
// format: a header and exactly three more lines, the sequence and
// quality lines checked for equal length and left in place.
//
//jem:hotpath
func (r *Reader) cutFASTQ() (Span, error) {
	sp, err := r.header('@', "FASTQ")
	if err != nil {
		return sp, err
	}
	var lines [3]Range
	for i := range lines {
		lo, hi, err := r.readLine()
		// EOF before all four lines exist is a truncated final record
		// and must be an error, not a silent accept (e.g. "@r\n\n+\n"
		// parsing as an empty record).
		if err == io.EOF {
			return sp, r.errorf(sp.ID, "truncated FASTQ record: unexpected EOF before %s line", fastqLines[i])
		}
		if err != nil {
			return sp, err
		}
		if i == 1 && (hi == lo || r.buf[lo] != '+') {
			return sp, r.errorf(sp.ID, "expected '+' separator")
		}
		lines[i] = Range{lo, hi}
	}
	sp.Seq, sp.Qual = trim(r.buf, lines[0].Lo, lines[0].Hi), trim(r.buf, lines[2].Lo, lines[2].Hi)
	if sp.Qual.Len() != sp.Seq.Len() {
		return sp, r.errorf(sp.ID, "qual length %d != seq length %d", sp.Qual.Len(), sp.Seq.Len())
	}
	return sp, nil
}

// ReadAll reads every record from r until EOF.
func (r *Reader) ReadAll() ([]Record, error) {
	var out []Record
	for {
		rec, err := r.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}

// ReadFile reads all records from a FASTA or FASTQ file on disk.
// Files ending in ".gz" are decompressed transparently.
func ReadFile(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var src io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("seq: %s: %w", path, err)
		}
		defer gz.Close()
		src = gz
	}
	recs, err := NewReader(src).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("seq: %s: %w", path, err)
	}
	return recs, nil
}

// WriteFASTA writes records in FASTA format with the given line width
// (width <= 0 means a single line per sequence).
func WriteFASTA(w io.Writer, records []Record, width int) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	for i := range records {
		rec := &records[i]
		if rec.Desc != "" {
			fmt.Fprintf(bw, ">%s %s\n", rec.ID, rec.Desc)
		} else {
			fmt.Fprintf(bw, ">%s\n", rec.ID)
		}
		s := rec.Seq
		if width <= 0 {
			bw.Write(s)
			bw.WriteByte('\n')
			continue
		}
		for len(s) > 0 {
			n := width
			if n > len(s) {
				n = len(s)
			}
			bw.Write(s[:n])
			bw.WriteByte('\n')
			s = s[n:]
		}
	}
	return bw.Flush()
}

// WriteFASTQ writes records in FASTQ format. Records lacking qualities
// get a constant high quality ('I', Q40).
func WriteFASTQ(w io.Writer, records []Record) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	for i := range records {
		rec := &records[i]
		if rec.Desc != "" {
			fmt.Fprintf(bw, "@%s %s\n", rec.ID, rec.Desc)
		} else {
			fmt.Fprintf(bw, "@%s\n", rec.ID)
		}
		bw.Write(rec.Seq)
		bw.WriteString("\n+\n")
		if rec.Qual != nil {
			bw.Write(rec.Qual)
		} else {
			for range rec.Seq {
				bw.WriteByte('I')
			}
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// WriteFASTAFile writes records to path in FASTA format (80-col
// lines), gzip-compressed when path ends in ".gz".
func WriteFASTAFile(path string, records []Record) error {
	return writeFile(path, func(w io.Writer) error { return WriteFASTA(w, records, 80) })
}

// WriteFASTQFile writes records to path in FASTQ format,
// gzip-compressed when path ends in ".gz".
func WriteFASTQFile(path string, records []Record) error {
	return writeFile(path, func(w io.Writer) error { return WriteFASTQ(w, records) })
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var dst io.Writer = f
	var gz *gzip.Writer
	if strings.HasSuffix(path, ".gz") {
		gz = gzip.NewWriter(f)
		dst = gz
	}
	if err := write(dst); err != nil {
		if gz != nil {
			_ = gz.Close() // the write error is the one to report
		}
		_ = f.Close()
		return err
	}
	if gz != nil {
		if err := gz.Close(); err != nil {
			_ = f.Close() // the gzip-flush error is the one to report
			return err
		}
	}
	return f.Close()
}
