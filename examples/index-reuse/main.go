// Index reuse: build the JEM sketch index once, persist it, and map
// several read batches against the reloaded index — the workflow for
// mapping many sequencing runs against one draft assembly. Also shows
// the streaming mapper, which bounds memory on large FASTQ inputs.
//
//	go run ./examples/index-reuse
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro"
)

func main() {
	ds, err := jem.Synthesize(jem.SynthesisConfig{
		Name:           "reuse",
		GenomeLength:   400_000,
		RepeatFraction: 0.10,
		Seed:           61,
	})
	if err != nil {
		log.Fatal(err)
	}
	opts := jem.DefaultOptions()

	// Build once, save.
	mapper, err := jem.NewMapper(ds.Contigs, opts)
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "jem-index")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	idxPath := filepath.Join(dir, "assembly.jemidx")
	if err := mapper.SaveIndexFile(idxPath); err != nil {
		log.Fatal(err)
	}
	info, _ := os.Stat(idxPath)
	fmt.Printf("index: %d contigs, %d bytes on disk\n", mapper.NumContigs(), info.Size())

	// Reopen and map two "runs" (halves of the read set).
	loaded, _, err := jem.Open(jem.OpenOptions{IndexPath: idxPath, Contigs: ds.Contigs})
	if err != nil {
		log.Fatal(err)
	}
	defer loaded.Close()
	half := len(ds.Reads) / 2
	for run, batch := range [][]jem.Record{ds.Reads[:half], ds.Reads[half:]} {
		mapped := 0
		batchMappings, err := loaded.Map(context.Background(), batch, jem.MapOptions{})
		if err != nil {
			log.Fatal(err)
		}
		for _, m := range batchMappings {
			if m.Mapped {
				mapped++
			}
		}
		fmt.Printf("run %d: %d reads, %d segments mapped\n", run+1, len(batch), mapped)
	}

	// Streaming: pipe FASTQ through without loading it wholesale.
	var fastq bytes.Buffer
	if err := jem.WriteFASTQ(filepath.Join(dir, "reads.fastq"), ds.Reads); err != nil {
		log.Fatal(err)
	}
	rf, err := os.Open(filepath.Join(dir, "reads.fastq"))
	if err != nil {
		log.Fatal(err)
	}
	defer rf.Close()
	stats, err := loaded.Stream(context.Background(), rf, &fastq, jem.StreamOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("streamed: %d reads -> %d segments (%d mapped), %d TSV bytes\n",
		stats.Reads, stats.Segments, stats.Mapped, fastq.Len())
}
