package seq

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
)

// oracleReader is the line-at-a-time bufio parser that Reader replaced,
// kept as the reference FuzzChunkedReader holds the cutter to: every
// record, RecordError (text and line) and Resync landing of Reader must
// match it byte for byte.
type oracleReader struct {
	br     *bufio.Reader
	format Format
	line   int
}

func newOracleReader(r io.Reader) *oracleReader {
	return &oracleReader{br: bufio.NewReaderSize(r, 1<<16)}
}

func (r *oracleReader) sniff() error {
	for {
		b, err := r.br.ReadByte()
		if err != nil {
			return err
		}
		switch b {
		case '\n', '\r', ' ', '\t':
			continue
		case '>':
			r.format = FormatFASTA
		case '@':
			r.format = FormatFASTQ
		default:
			return &RecordError{Line: r.line + 1, Msg: fmt.Sprintf("cannot sniff format: leading byte %q", b)}
		}
		return r.br.UnreadByte()
	}
}

func (r *oracleReader) Resync() error {
	for {
		peek, err := r.br.Peek(1)
		if err != nil {
			return err
		}
		switch b := peek[0]; {
		case r.format == FormatFASTA && b == '>':
			return nil
		case r.format == FormatFASTQ && b == '@':
			return nil
		case r.format == FormatUnknown && (b == '>' || b == '@'):
			return nil
		}
		if _, err := r.readLine(); err != nil && err != io.EOF {
			return err
		}
	}
}

func oracleSplitHeader(line string) (id, desc string) {
	line = strings.TrimSpace(line)
	if i := strings.IndexAny(line, " \t"); i >= 0 {
		return line[:i], strings.TrimSpace(line[i+1:])
	}
	return line, ""
}

func (r *oracleReader) readLine() ([]byte, error) {
	line, err := r.br.ReadBytes('\n')
	if len(line) > 0 {
		r.line++
		line = bytes.TrimRight(line, "\r\n")
		if err == io.EOF {
			err = nil
		}
	}
	return line, err
}

func (r *oracleReader) Read() (Record, error) {
	if r.format == FormatUnknown {
		if err := r.sniff(); err != nil {
			return Record{}, err
		}
	}
	if r.format == FormatFASTA {
		return r.readFASTA()
	}
	return r.readFASTQ()
}

func (r *oracleReader) readFASTA() (Record, error) {
	var header []byte
	for {
		line, err := r.readLine()
		if err != nil && len(line) == 0 {
			return Record{}, err
		}
		if len(line) == 0 {
			continue
		}
		if line[0] != '>' {
			return Record{}, &RecordError{Line: r.line, Msg: fmt.Sprintf("expected FASTA header, got %q", line)}
		}
		header = line
		break
	}
	rec := Record{}
	rec.ID, rec.Desc = oracleSplitHeader(string(header[1:]))
	var sb bytes.Buffer
	atEOF := false
	for {
		peek, err := r.br.Peek(1)
		if err == io.EOF {
			atEOF = true
			break
		}
		if err != nil {
			return Record{}, err
		}
		if peek[0] == '>' {
			break
		}
		line, err := r.readLine()
		if err != nil && err != io.EOF {
			return Record{}, err
		}
		payload := bytes.TrimSpace(line)
		if bytes.IndexByte(payload, '>') >= 0 {
			return Record{}, &RecordError{Line: r.line, ID: rec.ID, Msg: "'>' inside sequence data"}
		}
		sb.Write(payload)
		if err == io.EOF {
			atEOF = true
			break
		}
	}
	if atEOF && sb.Len() == 0 {
		return Record{}, &RecordError{Line: r.line, ID: rec.ID,
			Msg: "truncated FASTA record: header without sequence data at EOF"}
	}
	rec.Seq = Upper(sb.Bytes())
	return rec, nil
}

func (r *oracleReader) readFASTQ() (Record, error) {
	var header []byte
	for {
		line, err := r.readLine()
		if err != nil && len(line) == 0 {
			return Record{}, err
		}
		if len(line) == 0 {
			continue
		}
		if line[0] != '@' {
			return Record{}, &RecordError{Line: r.line, Msg: fmt.Sprintf("expected FASTQ header, got %q", line)}
		}
		header = line
		break
	}
	rec := Record{}
	rec.ID, rec.Desc = oracleSplitHeader(string(header[1:]))
	truncated := func(missing string) error {
		return &RecordError{Line: r.line, ID: rec.ID,
			Msg: fmt.Sprintf("truncated FASTQ record: unexpected EOF before %s line", missing)}
	}
	seqLine, err := r.readLine()
	if err != nil && err != io.EOF {
		return Record{}, err
	}
	if err == io.EOF && len(seqLine) == 0 {
		return Record{}, truncated("sequence")
	}
	plus, err := r.readLine()
	if err != nil && err != io.EOF {
		return Record{}, err
	}
	if err == io.EOF && len(plus) == 0 {
		return Record{}, truncated("'+' separator")
	}
	if len(plus) == 0 || plus[0] != '+' {
		return Record{}, &RecordError{Line: r.line, ID: rec.ID, Msg: "expected '+' separator"}
	}
	qualLine, err := r.readLine()
	if err != nil && err != io.EOF {
		return Record{}, err
	}
	if err == io.EOF && len(qualLine) == 0 {
		return Record{}, truncated("quality")
	}
	rec.Seq = Upper(append([]byte(nil), bytes.TrimSpace(seqLine)...))
	rec.Qual = append([]byte(nil), bytes.TrimSpace(qualLine)...)
	if len(rec.Qual) != len(rec.Seq) {
		return Record{}, &RecordError{Line: r.line, ID: rec.ID,
			Msg: fmt.Sprintf("qual length %d != seq length %d", len(rec.Qual), len(rec.Seq))}
	}
	return rec, nil
}

func (r *oracleReader) Line() int { return r.line }
