package jem_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro"
	"repro/internal/seq"
)

// TestFilePipeline exercises the on-disk workflow the CLIs implement:
// dataset to (gzipped) FASTA/FASTQ files, reload, map, index
// save/load, TSV round trip, and evaluation of the reloaded artifacts.
func TestFilePipeline(t *testing.T) {
	ds := buildSmallDataset(t)
	dir := t.TempDir()
	contigPath := filepath.Join(dir, "contigs.fasta.gz")
	readPath := filepath.Join(dir, "reads.fastq.gz")
	refPath := filepath.Join(dir, "ref.fasta")
	if err := seq.WriteFASTAFile(contigPath, ds.Contigs); err != nil {
		t.Fatal(err)
	}
	if err := jem.WriteFASTQ(readPath, ds.Reads); err != nil {
		t.Fatal(err)
	}
	if err := seq.WriteFASTAFile(refPath, ds.Chromosomes); err != nil {
		t.Fatal(err)
	}

	contigs, err := jem.ReadSequences(contigPath)
	if err != nil {
		t.Fatal(err)
	}
	reads, err := jem.ReadSequences(readPath)
	if err != nil {
		t.Fatal(err)
	}
	chromosomes, err := jem.ReadSequences(refPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(contigs) != len(ds.Contigs) || len(reads) != len(ds.Reads) {
		t.Fatalf("reload lost records: %d/%d contigs, %d/%d reads",
			len(contigs), len(ds.Contigs), len(reads), len(ds.Reads))
	}

	opts := jem.DefaultOptions()
	mapper, err := jem.NewMapper(contigs, opts)
	if err != nil {
		t.Fatal(err)
	}
	mappings := mapAll(mapper, reads)

	// Index round trip through a file.
	idxPath := filepath.Join(dir, "contigs.jemidx")
	f, err := os.Create(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := mapper.SaveIndex(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	f2, err := os.Open(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := jem.LoadMapper(f2, contigs)
	_ = f2.Close()
	if err != nil {
		t.Fatal(err)
	}
	reloadedMappings := mapAll(loaded, reads)
	if !reflect.DeepEqual(mappings, reloadedMappings) {
		t.Fatal("index-loaded mapper maps differently")
	}

	// TSV round trip + evaluation against ground truth recovered from
	// the FASTQ headers (the jem-eval path).
	var buf bytes.Buffer
	if err := jem.WriteTSV(&buf, mappings); err != nil {
		t.Fatal(err)
	}
	parsed, err := jem.ReadTSV(&buf, reads, contigs)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := jem.GroundTruthReads(reads)
	if err != nil {
		t.Fatal(err)
	}
	reloaded := &jem.Dataset{
		Chromosomes: chromosomes,
		Contigs:     contigs,
		Reads:       reads,
		Truth:       truth,
	}
	bench, err := jem.BuildBenchmark(reloaded, opts)
	if err != nil {
		t.Fatal(err)
	}
	q := bench.Evaluate(parsed)
	if q.Precision < 0.9 || q.Recall < 0.85 {
		t.Errorf("file-pipeline quality degraded: precision %.3f recall %.3f", q.Precision, q.Recall)
	}
}
