// Command jem-scaffold chains contigs into scaffolds using a JEM
// mapping: long reads whose two end segments map to different contigs
// witness contig adjacencies (the hybrid workflow motivating the
// paper). It consumes the TSV written by jem-mapper and emits a
// scaffold table plus, optionally, scaffold FASTA with N-gaps.
//
// Usage:
//
//	jem-scaffold -contigs contigs.fasta -reads reads.fastq mapping.tsv
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro"
	"repro/internal/seq"
)

func main() {
	var (
		contigPath = flag.String("contigs", "", "contigs FASTA (required)")
		readPath   = flag.String("reads", "", "long reads FASTA/FASTQ (required)")
		minSupport = flag.Int("min-support", 2, "minimum witnessing reads per link")
		gapLen     = flag.Int("gap", 100, "N-gap length between chained contigs in FASTA output")
		fastaOut   = flag.String("o", "", "write scaffold FASTA here (optional)")
		oriented   = flag.Bool("oriented", false, "map internally with positional sketches and build oriented scaffolds with gap estimates (no TSV argument)")
		agpOut     = flag.String("agp", "", "write AGP v2.1 here (oriented mode)")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: jem-scaffold -contigs C -reads Q [flags] mapping.tsv\n")
		fmt.Fprintf(os.Stderr, "       jem-scaffold -oriented -contigs C -reads Q [-agp out.agp]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *contigPath == "" || *readPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	var err error
	if *oriented {
		if flag.NArg() != 0 {
			flag.Usage()
			os.Exit(2)
		}
		err = runOriented(*contigPath, *readPath, *minSupport, *agpOut)
	} else {
		if flag.NArg() != 1 {
			flag.Usage()
			os.Exit(2)
		}
		err = run(*contigPath, *readPath, flag.Arg(0), *minSupport, *gapLen, *fastaOut)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "jem-scaffold: %v\n", err)
		os.Exit(1)
	}
}

// runOriented maps the reads with positional sketches and emits
// oriented scaffolds with estimated gaps (table to stdout, AGP
// optionally to a file).
func runOriented(contigPath, readPath string, minSupport int, agpOut string) error {
	contigs, err := jem.ReadSequences(contigPath)
	if err != nil {
		return err
	}
	reads, err := jem.ReadSequences(readPath)
	if err != nil {
		return err
	}
	mapper, _, err := jem.Open(jem.OpenOptions{Contigs: contigs, Options: jem.DefaultOptions()})
	if err != nil {
		return err
	}
	pms, err := mapper.MapReadsPositional(context.Background(), reads)
	if err != nil {
		return err
	}
	scaffolds, singletons := jem.BuildScaffoldsOrientedFull(pms, reads, contigs, minSupport)
	for i, sc := range scaffolds {
		fmt.Printf("scaffold_%d\t%d contigs:", i, len(sc.Contigs))
		for j, c := range sc.Contigs {
			orient := "+"
			if sc.Reversed[j] {
				orient = "-"
			}
			if j > 0 {
				fmt.Printf(" --%d--", sc.Gaps[j])
			}
			fmt.Printf(" %s(%s)", contigs[c].ID, orient)
		}
		fmt.Println()
	}
	fmt.Fprintf(os.Stderr, "%d oriented scaffolds, %d singletons (min support %d)\n",
		len(scaffolds), len(singletons), minSupport)
	if agpOut != "" {
		f, err := os.Create(agpOut)
		if err != nil {
			return err
		}
		if err := jem.WriteAGP(f, scaffolds, singletons, contigs, 10); err != nil {
			_ = f.Close() // the WriteAGP error is the one to report
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote AGP to %s\n", agpOut)
	}
	return nil
}

func run(contigPath, readPath, tsvPath string, minSupport, gapLen int, fastaOut string) error {
	contigs, err := jem.ReadSequences(contigPath)
	if err != nil {
		return err
	}
	reads, err := jem.ReadSequences(readPath)
	if err != nil {
		return err
	}
	f, err := os.Open(tsvPath)
	if err != nil {
		return err
	}
	mappings, err := jem.ReadTSV(f, reads, contigs)
	_ = f.Close() // read-only; parse errors carry the signal
	if err != nil {
		return err
	}
	scaffolds := jem.BuildScaffolds(mappings, len(contigs), minSupport)

	inChains := 0
	var records []seq.Record
	for i, sc := range scaffolds {
		names := make([]string, len(sc.Contigs))
		var span int64
		for j, c := range sc.Contigs {
			names[j] = contigs[c].ID
			span += int64(len(contigs[c].Seq))
		}
		inChains += len(sc.Contigs)
		fmt.Printf("scaffold_%d\t%d contigs\t%d bp\t%s\n", i, len(sc.Contigs), span, strings.Join(names, ","))
		if fastaOut != "" {
			var sb []byte
			for j, c := range sc.Contigs {
				if j > 0 {
					for g := 0; g < gapLen; g++ {
						sb = append(sb, 'N')
					}
				}
				sb = append(sb, contigs[c].Seq...)
			}
			records = append(records, seq.Record{
				ID:   fmt.Sprintf("scaffold_%d", i),
				Desc: fmt.Sprintf("contigs=%d span=%d", len(sc.Contigs), span),
				Seq:  sb,
			})
		}
	}
	fmt.Fprintf(os.Stderr, "%d scaffolds covering %d of %d contigs (min support %d)\n",
		len(scaffolds), inChains, len(contigs), minSupport)
	if fastaOut != "" {
		// Singleton contigs pass through unchanged so the output is a
		// complete assembly.
		inChain := make([]bool, len(contigs))
		for _, sc := range scaffolds {
			for _, c := range sc.Contigs {
				inChain[c] = true
			}
		}
		for i := range contigs {
			if !inChain[i] {
				records = append(records, contigs[i])
			}
		}
		if err := seq.WriteFASTAFile(fastaOut, records); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d records to %s\n", len(records), fastaOut)
	}
	return nil
}
