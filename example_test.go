package jem_test

import (
	"fmt"
	"math/rand"
	"os"

	"repro"
)

// deterministicDNA produces a fixed pseudo-random sequence so example
// outputs are stable.
func deterministicDNA(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	bases := []byte("ACGT")
	s := make([]byte, n)
	for i := range s {
		s[i] = bases[rng.Intn(4)]
	}
	return s
}

// ExampleNewMapper shows the core flow: index contigs, map a read's
// end segments, inspect the best hits.
func ExampleNewMapper() {
	genome := deterministicDNA(7, 12_000)
	contigs := []jem.Record{
		{ID: "contig_a", Seq: genome[:6000]},
		{ID: "contig_b", Seq: genome[6000:]},
	}
	// A read bridging the two contigs.
	read := jem.Record{ID: "read_1", Seq: genome[4000:9000]}

	mapper, err := jem.NewMapper(contigs, jem.DefaultOptions())
	if err != nil {
		panic(err)
	}
	for _, m := range mapAll(mapper, []jem.Record{read}) {
		fmt.Printf("%s %s -> %s\n", m.ReadID, m.End, m.ContigID)
	}
	// Output:
	// read_1 prefix -> contig_a
	// read_1 suffix -> contig_b
}

// ExampleMapper_Map_segment maps one ad-hoc segment: a read no longer
// than SegmentLen is a single (prefix) end segment.
func ExampleMapper_Map_segment() {
	genome := deterministicDNA(11, 8000)
	contigs := []jem.Record{{ID: "only", Seq: genome}}
	mapper, err := jem.NewMapper(contigs, jem.DefaultOptions())
	if err != nil {
		panic(err)
	}
	rows := mapAll(mapper, []jem.Record{{ID: "seg", Seq: genome[2000:3000]}})
	fmt.Println(rows[0].Mapped, rows[0].ContigID, rows[0].SharedTrials)
	// 26 of the 30 trials collide: interior segments sit between the
	// subject's interval anchors, so a few trials pick boundary
	// minimizers the query's single interval does not contain.
	// Output:
	// true only 26
}

// ExampleBuildScaffolds links contigs through bridging reads.
func ExampleBuildScaffolds() {
	genome := deterministicDNA(13, 15_000)
	contigs := []jem.Record{
		{ID: "c0", Seq: genome[:5000]},
		{ID: "c1", Seq: genome[5000:10_000]},
		{ID: "c2", Seq: genome[10_000:]},
	}
	reads := []jem.Record{
		{ID: "r0", Seq: genome[3000:7000]},   // bridges c0-c1
		{ID: "r1", Seq: genome[8000:12_000]}, // bridges c1-c2
	}
	mapper, err := jem.NewMapper(contigs, jem.DefaultOptions())
	if err != nil {
		panic(err)
	}
	scaffolds := jem.BuildScaffolds(mapAll(mapper, reads), len(contigs), 1)
	for _, sc := range scaffolds {
		fmt.Println(len(sc.Contigs), "contigs chained")
	}
	// Output:
	// 3 contigs chained
}

// ExampleWriteTSV shows the interchange format.
func ExampleWriteTSV() {
	mappings := []jem.Mapping{
		{ReadID: "r1", End: jem.PrefixEnd, Mapped: true, ContigID: "c7", SharedTrials: 28},
		{ReadID: "r1", End: jem.SuffixEnd},
	}
	if err := jem.WriteTSV(os.Stdout, mappings); err != nil {
		panic(err)
	}
	// Output:
	// read_id	end	contig_id	shared_trials
	// r1	prefix	c7	28
	// r1	suffix	*	0
}

// ExampleOpen shows the one front door for construction: build from
// contigs, persist, then reopen from the index file with a
// rebuild-on-corruption policy.
func ExampleOpen() {
	genome := deterministicDNA(17, 10_000)
	contigs := []jem.Record{
		{ID: "c0", Seq: genome[:5000]},
		{ID: "c1", Seq: genome[5000:]},
	}
	dir, err := os.MkdirTemp("", "jem-example")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	idx := dir + "/jem.idx"

	// First run: no index on the given path yet, so Open builds from
	// the contigs; persist the result for next time.
	mapper, info, err := jem.Open(jem.OpenOptions{Contigs: contigs, Options: jem.DefaultOptions()})
	if err != nil {
		panic(err)
	}
	fmt.Println("from index:", info.FromIndex)
	if err := mapper.SaveIndexFile(idx); err != nil {
		panic(err)
	}

	// Later runs: load the index; RebuildOnCorrupt falls back to the
	// contigs if the file fails its checksum.
	mapper, info, err = jem.Open(jem.OpenOptions{
		Contigs:          contigs,
		IndexPath:        idx,
		RebuildOnCorrupt: true,
		Options:          jem.DefaultOptions(),
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("from index:", info.FromIndex, "rebuilt:", info.Rebuilt)
	read := jem.Record{ID: "r", Seq: genome[3000:8000]}
	for _, m := range mapAll(mapper, []jem.Record{read}) {
		fmt.Printf("%s %s -> %s\n", m.ReadID, m.End, m.ContigID)
	}
	// Output:
	// from index: false
	// from index: true rebuilt: false
	// r prefix -> c0
	// r suffix -> c1
}

// ExampleOptions_sharded serves the same index from four shards;
// results are byte-identical to the unsharded mapper by construction.
func ExampleOptions_sharded() {
	genome := deterministicDNA(19, 12_000)
	contigs := []jem.Record{
		{ID: "left", Seq: genome[:6000]},
		{ID: "right", Seq: genome[6000:]},
	}
	opts := jem.DefaultOptions()
	opts.Shards = 4
	mapper, _, err := jem.Open(jem.OpenOptions{Contigs: contigs, Options: opts})
	if err != nil {
		panic(err)
	}
	fmt.Println("shards:", mapper.Shards())
	read := jem.Record{ID: "r", Seq: genome[4000:9000]}
	for _, m := range mapAll(mapper, []jem.Record{read}) {
		fmt.Printf("%s %s -> %s\n", m.ReadID, m.End, m.ContigID)
	}
	// Output:
	// shards: 4
	// r prefix -> left
	// r suffix -> right
}
