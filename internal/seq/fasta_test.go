package seq

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestReadFASTA(t *testing.T) {
	in := ">r1 first record\nACGT\nACGT\n>r2\nTTTT\n\n>r3\nGG\n"
	r := NewReader(strings.NewReader(in))
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if r.format != FormatFASTA {
		t.Errorf("format = %v", r.format)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].ID != "r1" || recs[0].Desc != "first record" || string(recs[0].Seq) != "ACGTACGT" {
		t.Errorf("rec0 = %+v", recs[0])
	}
	if recs[1].ID != "r2" || string(recs[1].Seq) != "TTTT" {
		t.Errorf("rec1 = %+v", recs[1])
	}
	if string(recs[2].Seq) != "GG" {
		t.Errorf("rec2 = %+v", recs[2])
	}
}

func TestReadFASTALowercaseUppercased(t *testing.T) {
	recs, err := NewReader(strings.NewReader(">x\nacgt\n")).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if string(recs[0].Seq) != "ACGT" {
		t.Errorf("seq = %q", recs[0].Seq)
	}
}

func TestReadFASTQ(t *testing.T) {
	in := "@q1 desc here\nACGT\n+\nIIII\n@q2\nGG\n+q2\nJJ\n"
	r := NewReader(strings.NewReader(in))
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if r.format != FormatFASTQ {
		t.Errorf("format = %v", r.format)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].ID != "q1" || recs[0].Desc != "desc here" || string(recs[0].Qual) != "IIII" {
		t.Errorf("rec0 = %+v", recs[0])
	}
	if string(recs[1].Seq) != "GG" || string(recs[1].Qual) != "JJ" {
		t.Errorf("rec1 = %+v", recs[1])
	}
}

func TestReadEmptyInput(t *testing.T) {
	recs, err := NewReader(strings.NewReader("")).ReadAll()
	if err != nil || len(recs) != 0 {
		t.Errorf("empty input: recs=%v err=%v", recs, err)
	}
	recs, err = NewReader(strings.NewReader("\n\n\n")).ReadAll()
	if err != nil || len(recs) != 0 {
		t.Errorf("blank input: recs=%v err=%v", recs, err)
	}
}

func TestReadMalformed(t *testing.T) {
	cases := []string{
		"ACGT\n",             // no header
		"@q1\nACGT\nIIII\n",  // missing '+' line
		"@q1\nACGT\n+\nII\n", // qual length mismatch
	}
	for _, in := range cases {
		if _, err := NewReader(strings.NewReader(in)).ReadAll(); err == nil {
			t.Errorf("input %q: expected error", in)
		}
	}
}

func TestCRLFHandling(t *testing.T) {
	in := ">r1\r\nACGT\r\n>r2\r\nTT\r\n"
	recs, err := NewReader(strings.NewReader(in)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if string(recs[0].Seq) != "ACGT" || string(recs[1].Seq) != "TT" {
		t.Errorf("recs = %+v", recs)
	}
}

func TestWriteFASTAWidths(t *testing.T) {
	recs := []Record{{ID: "a", Desc: "d", Seq: []byte("ACGTACGTAC")}}
	var buf bytes.Buffer
	if err := WriteFASTA(&buf, recs, 4); err != nil {
		t.Fatal(err)
	}
	want := ">a d\nACGT\nACGT\nAC\n"
	if buf.String() != want {
		t.Errorf("got %q want %q", buf.String(), want)
	}
	buf.Reset()
	if err := WriteFASTA(&buf, recs, 0); err != nil {
		t.Fatal(err)
	}
	if buf.String() != ">a d\nACGTACGTAC\n" {
		t.Errorf("got %q", buf.String())
	}
}

func TestFASTARoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var recs []Record
	for i := 0; i < 20; i++ {
		recs = append(recs, Record{
			ID:  "rec" + string(rune('a'+i)),
			Seq: randDNA(rng, 1+rng.Intn(500)),
		})
	}
	var buf bytes.Buffer
	if err := WriteFASTA(&buf, recs, 60); err != nil {
		t.Fatal(err)
	}
	got, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].ID != recs[i].ID || !bytes.Equal(got[i].Seq, recs[i].Seq) {
			t.Errorf("record %d mismatch", i)
		}
	}
}

func TestFASTQRoundTrip(t *testing.T) {
	recs := []Record{
		{ID: "q1", Desc: "hello world", Seq: []byte("ACGT"), Qual: []byte("IJKL")},
		{ID: "q2", Seq: []byte("GGCC")}, // no qual: writer synthesizes Q40
	}
	var buf bytes.Buffer
	if err := WriteFASTQ(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Desc != "hello world" || string(got[0].Qual) != "IJKL" {
		t.Errorf("rec0 = %+v", got[0])
	}
	if string(got[1].Qual) != "IIII" {
		t.Errorf("rec1 qual = %q", got[1].Qual)
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.fasta")
	recs := []Record{{ID: "a", Seq: []byte("ACGT")}}
	if err := WriteFASTAFile(path, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil || len(got) != 1 || string(got[0].Seq) != "ACGT" {
		t.Errorf("got %v err %v", got, err)
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.fasta")); err == nil {
		t.Error("missing file should error")
	}
}

func TestGzipRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(15))
	recs := []Record{
		{ID: "g1", Seq: randDNA(rng, 1000)},
		{ID: "g2", Desc: "compressed", Seq: randDNA(rng, 257)},
	}
	for _, name := range []string{"x.fasta.gz", "x.fastq.gz"} {
		path := filepath.Join(dir, name)
		var err error
		if strings.HasSuffix(name, "fasta.gz") {
			err = WriteFASTAFile(path, recs)
		} else {
			err = WriteFASTQFile(path, recs)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != 2 || got[0].ID != "g1" || !bytes.Equal(got[1].Seq, recs[1].Seq) {
			t.Fatalf("%s: round trip mismatch", name)
		}
	}
	// A .gz path with non-gzip content must error, not garbage-parse.
	bad := filepath.Join(dir, "bad.fasta.gz")
	if err := WriteFASTAFile(filepath.Join(dir, "plain.fasta"), recs); err != nil {
		t.Fatal(err)
	}
	if err := copyFile(filepath.Join(dir, "plain.fasta"), bad); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(bad); err == nil {
		t.Error("mislabeled gzip should fail")
	}
}

func copyFile(src, dst string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
}

func TestFormatString(t *testing.T) {
	if FormatFASTA.String() != "fasta" || FormatFASTQ.String() != "fastq" || FormatUnknown.String() != "unknown" {
		t.Error("format strings wrong")
	}
}

func TestSniffRejectsGarbage(t *testing.T) {
	if _, err := NewReader(strings.NewReader("garbage\n")).ReadAll(); err == nil {
		t.Error("unsniffable input should fail")
	}
	// Leading whitespace before a valid header is tolerated.
	recs, err := NewReader(strings.NewReader("\n  \n>ok\nACGT\n")).ReadAll()
	if err != nil || len(recs) != 1 || recs[0].ID != "ok" {
		t.Errorf("recs=%v err=%v", recs, err)
	}
}

func TestRejectsHeaderInsideSequence(t *testing.T) {
	// A '>' preceded by whitespace on a sequence line is malformed and
	// must not silently corrupt the stream (fuzz regression).
	if _, err := NewReader(strings.NewReader(">a\nACGT\n >b\nTTTT\n")).ReadAll(); err == nil {
		t.Error("indented header should be rejected")
	}
}

func TestReaderStreaming(t *testing.T) {
	r := NewReader(strings.NewReader(">a\nAC\n>b\nGT\n"))
	r1, err := r.Read()
	if err != nil || r1.ID != "a" {
		t.Fatalf("first read: %v %v", r1, err)
	}
	r2, err := r.Read()
	if err != nil || r2.ID != "b" {
		t.Fatalf("second read: %v %v", r2, err)
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}
