package jem_test

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro"
)

func TestWriteSAM(t *testing.T) {
	ds := buildSmallDataset(t)
	opts := jem.DefaultOptions()
	mapper, err := jem.NewMapper(ds.Contigs, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Map a subset to keep the verification cost small.
	reads := ds.Reads[:30]
	sam := streamFormat(t, mapper, reads, jem.FormatSAM)
	lines := strings.Split(strings.TrimRight(string(sam), "\n"), "\n")

	// Header: @HD, one @SQ per contig, @PG.
	if !strings.HasPrefix(lines[0], "@HD\t") {
		t.Fatalf("first line %q", lines[0])
	}
	sq := 0
	body := 0
	contigLens := map[string]int{}
	for i := range ds.Contigs {
		contigLens[ds.Contigs[i].ID] = len(ds.Contigs[i].Seq)
	}
	revSeen := false
	for _, line := range lines {
		if strings.HasPrefix(line, "@SQ\t") {
			sq++
			continue
		}
		if strings.HasPrefix(line, "@") {
			continue
		}
		body++
		fields := strings.Split(line, "\t")
		if len(fields) < 11 {
			t.Fatalf("SAM record has %d fields: %q", len(fields), line)
		}
		flag, _ := strconv.Atoi(fields[1])
		if flag&0x4 != 0 {
			if fields[2] != "*" || fields[5] != "*" {
				t.Errorf("unmapped record with coordinates: %q", line)
			}
			continue
		}
		if flag&0x10 != 0 {
			revSeen = true
		}
		pos, _ := strconv.Atoi(fields[3])
		tlen := contigLens[fields[2]]
		if tlen == 0 {
			t.Fatalf("unknown RNAME %q", fields[2])
		}
		if pos < 1 || pos > tlen {
			t.Errorf("POS %d outside contig %s (len %d)", pos, fields[2], tlen)
		}
		// CIGAR query consumption must equal SEQ length.
		if fields[5] != "*" && fields[9] != "*" {
			if got, _ := cigarLens(t, fields[5]); got != len(fields[9]) {
				t.Errorf("CIGAR consumes %d query bases, SEQ is %d: %q", got, len(fields[9]), fields[5])
			}
		}
		mapq, _ := strconv.Atoi(fields[4])
		if mapq < 0 || mapq > 60 {
			t.Errorf("MAPQ %d", mapq)
		}
	}
	if sq != len(ds.Contigs) {
		t.Errorf("@SQ lines %d want %d", sq, len(ds.Contigs))
	}
	if segments := len(mapAll(mapper, reads)); body != segments {
		t.Errorf("body records %d want one per end segment, %d", body, segments)
	}
	// The dataset samples both strands, so reverse records must occur.
	if !revSeen {
		t.Error("no reverse-strand SAM records")
	}
}

// TestStreamSAMNeedsContigs: FormatSAM aligns against the contig
// sequences, so a mapper loaded without its contig records refuses the
// format before writing a byte.
func TestStreamSAMNeedsContigs(t *testing.T) {
	ds := buildSmallDataset(t)
	built, err := jem.NewMapper(ds.Contigs, jem.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	idx := filepath.Join(t.TempDir(), "idx.jem")
	if err := built.SaveIndexFile(idx); err != nil {
		t.Fatal(err)
	}
	m, _, err := jem.Open(jem.OpenOptions{IndexPath: idx})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Close() }()
	var reads, out bytes.Buffer
	if err := writeFASTQ(&reads, ds.Reads[:4]); err != nil {
		t.Fatal(err)
	}
	_, err = m.Stream(context.Background(), &reads, &out, jem.StreamOptions{Format: jem.FormatSAM})
	if !errors.Is(err, jem.ErrInvalidOptions) {
		t.Fatalf("SAM without contig records: error %v does not wrap ErrInvalidOptions", err)
	}
	if out.Len() != 0 {
		t.Fatalf("refused SAM run wrote %d bytes", out.Len())
	}
}

// cigarLens returns how many query and reference bases a CIGAR
// consumes.
func cigarLens(t *testing.T, cigar string) (query, ref int) {
	t.Helper()
	run := 0
	for _, c := range cigar {
		if c >= '0' && c <= '9' {
			run = run*10 + int(c-'0')
			continue
		}
		switch c {
		case 'M', '=', 'X':
			query += run
			ref += run
		case 'I', 'S':
			query += run
		case 'D', 'N':
			ref += run
		case 'H', 'P':
		default:
			t.Fatalf("bad CIGAR op %c in %q", c, cigar)
		}
		run = 0
	}
	return query, ref
}

// samRecord is one parsed SAM alignment record of FormatSAM.
type samRecord struct {
	jem.Mapping
	identity float64
	cigar    string
}

// samRecords parses FormatSAM output, resolving read and contig names
// against the record slices the run was given.
func samRecords(t *testing.T, sam []byte, reads, contigs []jem.Record) []samRecord {
	t.Helper()
	readIdx := make(map[string]int, len(reads))
	for i := range reads {
		readIdx[reads[i].ID] = i
	}
	contigIdx := make(map[string]int, len(contigs))
	for i := range contigs {
		contigIdx[contigs[i].ID] = i
	}
	var out []samRecord
	for _, line := range strings.Split(strings.TrimRight(string(sam), "\n"), "\n") {
		if strings.HasPrefix(line, "@") {
			continue
		}
		f := strings.Split(line, "\t")
		slash := strings.LastIndexByte(f[0], '/')
		if len(f) < 11 || slash < 0 {
			t.Fatalf("malformed SAM record %q", line)
		}
		id := f[0][:slash]
		r := samRecord{Mapping: jem.Mapping{ReadIndex: readIdx[id], ReadID: id, End: jem.SegmentEnd(f[0][slash+1:])}}
		if flag, _ := strconv.Atoi(f[1]); flag&0x4 == 0 {
			r.Mapped, r.Contig, r.ContigID, r.cigar = true, contigIdx[f[2]], f[2], f[5]
			for _, tag := range f[11:] {
				switch {
				case strings.HasPrefix(tag, "jm:i:"):
					r.SharedTrials, _ = strconv.Atoi(tag[5:])
				case strings.HasPrefix(tag, "pi:f:"):
					r.identity, _ = strconv.ParseFloat(tag[5:], 64)
				}
			}
		}
		out = append(out, r)
	}
	return out
}
