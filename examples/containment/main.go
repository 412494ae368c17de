// Containment: the extension scenario the paper flags in §III-B.1 —
// when a contig is completely contained in a long read's interior,
// end-segment mapping cannot see it; tiling the whole read with
// ℓ-length segments recovers it. This example builds such a case
// explicitly and contrasts the two query modes, then shows PAF output
// with positional estimates.
//
//	go run ./examples/containment
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"

	"repro"
)

// must stops the example on a mapping error.
func must[T any](v T, err error) T {
	if err != nil {
		log.Fatal(err)
	}
	return v
}

func randDNA(rng *rand.Rand, n int) []byte {
	bases := []byte("ACGT")
	s := make([]byte, n)
	for i := range s {
		s[i] = bases[rng.Intn(4)]
	}
	return s
}

func main() {
	rng := rand.New(rand.NewSource(99))

	// Three contigs; the middle one (2 kbp) will be fully contained in
	// the read's interior.
	left := randDNA(rng, 8000)
	mid := randDNA(rng, 2000)
	right := randDNA(rng, 8000)
	contigs := []jem.Record{
		{ID: "left", Seq: left},
		{ID: "contained", Seq: mid},
		{ID: "right", Seq: right},
	}
	// The read walks off the end of "left", through all of
	// "contained", into "right": 12 kbp total.
	read := append([]byte(nil), left[3000:]...)
	read = append(read, mid...)
	read = append(read, right[:5000]...)
	readRec := jem.Record{ID: "bridging_read", Seq: read}

	ctx := context.Background()
	opts := jem.DefaultOptions()
	mapper := must(jem.NewMapper(contigs, opts))

	// 1. Classic end-segment mapping sees only the flanking contigs.
	fmt.Println("end-segment mapping:")
	for _, m := range must(mapper.Map(ctx, []jem.Record{readRec}, jem.MapOptions{})) {
		fmt.Printf("  %s %s -> %s (shared trials %d)\n", m.ReadID, m.End, m.ContigID, m.SharedTrials)
	}

	// 2. Tiled mapping walks the read interior and finds everything.
	fmt.Println("\ntiled mapping (stride = l/2):")
	for _, tm := range must(mapper.MapReadTiled(ctx, read, opts.SegmentLen/2)) {
		fmt.Printf("  tile @%5d..%5d -> %s (shared trials %d)\n",
			tm.Offset, tm.Offset+tm.Length, tm.ContigID, tm.SharedTrials)
	}
	fmt.Println("\ncontigs contained in the read interior:")
	for _, c := range must(mapper.ContainedContigs(ctx, read)) {
		fmt.Printf("  %s (%d bp)\n", contigs[c].ID, len(contigs[c].Seq))
	}

	// 3. PAF output with positional + strand estimates for the ends.
	fmt.Println("\nPAF (end segments, positional extension):")
	fasta := strings.NewReader(">" + readRec.ID + "\n" + string(read) + "\n")
	must(mapper.Stream(ctx, fasta, os.Stdout, jem.StreamOptions{Format: jem.FormatPAF}))
}
