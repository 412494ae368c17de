package jem_test

import (
	"bytes"
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
	vms := verifiedAll(mapper, reads, jem.VerifyOptions{})
	var buf bytes.Buffer
	if err := mapper.WriteSAM(&buf, vms, reads); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")

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
			if got := cigarQueryLen(t, fields[5]); got != len(fields[9]) {
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
	if body != len(vms) {
		t.Errorf("body records %d want %d", body, len(vms))
	}
	// The dataset samples both strands, so reverse records must occur.
	if !revSeen {
		t.Error("no reverse-strand SAM records")
	}
}

func cigarQueryLen(t *testing.T, cigar string) int {
	t.Helper()
	total, run := 0, 0
	for _, c := range cigar {
		if c >= '0' && c <= '9' {
			run = run*10 + int(c-'0')
			continue
		}
		switch c {
		case 'M', 'I', 'S', '=', 'X':
			total += run
		case 'D', 'N', 'H', 'P':
		default:
			t.Fatalf("bad CIGAR op %c in %q", c, cigar)
		}
		run = 0
	}
	return total
}
