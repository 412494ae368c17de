package assemble

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/genome"
	"repro/internal/kmer"
	"repro/internal/seq"
	"repro/internal/simulate"
)

func errorFreeReads(t *testing.T, g *genome.Genome, coverage float64) []seq.Record {
	t.Helper()
	reads, err := simulate.Illumina(g.Records, simulate.IlluminaConfig{
		Coverage: coverage, ErrorRate: -1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return simulate.Records(reads)
}

func TestAssembleErrorFreeContigsAreSubstrings(t *testing.T) {
	// With error-free reads every solid k-mer is genomic, so every
	// contig must appear verbatim in the genome (on either strand) —
	// the core correctness property of the unitig walk.
	g, err := genome.Generate(genome.Config{Length: 60_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	reads := errorFreeReads(t, g, 25)
	asm, err := Assemble(reads, Config{K: 21, MinAbundance: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(asm.Contigs) == 0 {
		t.Fatal("no contigs")
	}
	for _, c := range asm.Contigs {
		if !bytes.Contains(g.Seq, c.Seq) && !bytes.Contains(g.Seq, seq.ReverseComplement(c.Seq)) {
			t.Fatalf("contig %s (%d bp) not a substring of the genome", c.ID, len(c.Seq))
		}
	}
}

func TestAssembleCoversGenome(t *testing.T) {
	g, err := genome.Generate(genome.Config{Length: 80_000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	reads := errorFreeReads(t, g, 30)
	asm, err := Assemble(reads, Config{K: 25, MinAbundance: 2})
	if err != nil {
		t.Fatal(err)
	}
	if float64(asm.Stats.TotalBases) < 0.9*float64(len(g.Seq)) {
		t.Errorf("assembly covers only %d of %d bases", asm.Stats.TotalBases, len(g.Seq))
	}
	// A random-sequence genome should assemble into few large contigs.
	if asm.Stats.N50 < 5_000 {
		t.Errorf("N50 %d suspiciously small", asm.Stats.N50)
	}
}

func TestAssembleFiltersSequencingErrors(t *testing.T) {
	g, err := genome.Generate(genome.Config{Length: 50_000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := simulate.Illumina(g.Records, simulate.IlluminaConfig{
		Coverage: 30, ErrorRate: 0.005, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	asm, err := Assemble(simulate.Records(noisy), Config{K: 21, MinAbundance: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Erroneous k-mers must be gone: solid set should be close to the
	// genomic distinct k-mer count, far below the raw distinct count.
	genomic := len(kmer.Set(g.Seq, 21))
	if asm.Stats.SolidKmers > genomic*11/10 {
		t.Errorf("solid k-mers %d far exceed genomic %d (error filtering failed)",
			asm.Stats.SolidKmers, genomic)
	}
	if asm.Stats.DistinctKmers < asm.Stats.SolidKmers {
		t.Errorf("distinct %d < solid %d", asm.Stats.DistinctKmers, asm.Stats.SolidKmers)
	}
	if asm.Stats.DistinctKmers < genomic*3/2 {
		t.Errorf("errors should inflate distinct k-mers: distinct=%d genomic=%d",
			asm.Stats.DistinctKmers, genomic)
	}
}

func TestRepeatsFragmentAssembly(t *testing.T) {
	plain, err := genome.Generate(genome.Config{Length: 100_000, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	repeaty, err := genome.Generate(genome.Config{
		Length: 100_000, RepeatFraction: 0.3, RepeatDivergence: 0, RepeatRegionFraction: 1, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	asmPlain, err := Assemble(errorFreeReads(t, plain, 25), Config{K: 21, MinAbundance: 2})
	if err != nil {
		t.Fatal(err)
	}
	asmRep, err := Assemble(errorFreeReads(t, repeaty, 25), Config{K: 21, MinAbundance: 2})
	if err != nil {
		t.Fatal(err)
	}
	if asmRep.Stats.Contigs <= asmPlain.Stats.Contigs {
		t.Errorf("repeats should fragment: %d contigs vs %d on plain",
			asmRep.Stats.Contigs, asmPlain.Stats.Contigs)
	}
}

func TestAssembleDeterministic(t *testing.T) {
	fault.LeakCheck(t)
	g, _ := genome.Generate(genome.Config{Length: 30_000, Seed: 7})
	reads := errorFreeReads(t, g, 20)
	a1, err := Assemble(reads, Config{K: 21, MinAbundance: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Assemble(reads, Config{K: 21, MinAbundance: 2, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(a1.Contigs) != len(a2.Contigs) {
		t.Fatalf("contig counts differ: %d vs %d", len(a1.Contigs), len(a2.Contigs))
	}
	for i := range a1.Contigs {
		if !bytes.Equal(a1.Contigs[i].Seq, a2.Contigs[i].Seq) {
			t.Fatalf("contig %d differs between worker counts", i)
		}
	}
}

func TestAssembleEmptyAndTinyInputs(t *testing.T) {
	asm, err := Assemble(nil, Config{K: 21})
	if err != nil {
		t.Fatal(err)
	}
	if len(asm.Contigs) != 0 {
		t.Errorf("empty input produced contigs")
	}
	// Reads shorter than k contribute nothing.
	asm, err = Assemble([]seq.Record{{ID: "r", Seq: []byte("ACGT")}}, Config{K: 21})
	if err != nil {
		t.Fatal(err)
	}
	if len(asm.Contigs) != 0 {
		t.Errorf("short reads produced contigs")
	}
}

func TestAssembleValidation(t *testing.T) {
	if _, err := Assemble(nil, Config{K: -1}); err == nil {
		t.Error("negative k should fail")
	}
	if _, err := Assemble(nil, Config{K: 33}); err == nil {
		t.Error("k > MaxK should fail")
	}
}

func TestMinContigLenFilter(t *testing.T) {
	g, _ := genome.Generate(genome.Config{Length: 40_000, Seed: 8})
	reads := errorFreeReads(t, g, 20)
	asm, err := Assemble(reads, Config{K: 21, MinAbundance: 2, MinContigLen: 500})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range asm.Contigs {
		if len(c.Seq) < 500 {
			t.Fatalf("contig %s below MinContigLen: %d", c.ID, len(c.Seq))
		}
	}
}

func TestSummarizeStats(t *testing.T) {
	contigs := []seq.Record{
		{Seq: bytes.Repeat([]byte("A"), 100)},
		{Seq: bytes.Repeat([]byte("C"), 200)},
		{Seq: bytes.Repeat([]byte("G"), 700)},
	}
	st := summarize(contigs)
	if st.Contigs != 3 || st.TotalBases != 1000 || st.MaxLen != 700 {
		t.Errorf("stats = %+v", st)
	}
	if st.N50 != 700 {
		t.Errorf("N50 = %d want 700", st.N50)
	}
	if st.MeanLen < 333 || st.MeanLen > 334 {
		t.Errorf("mean = %v", st.MeanLen)
	}
	empty := summarize(nil)
	if empty.Contigs != 0 || empty.N50 != 0 {
		t.Errorf("empty stats = %+v", empty)
	}
}

func TestUnitigWalkHandlesCycle(t *testing.T) {
	// A perfectly periodic sequence creates a cycle in the de Bruijn
	// graph; the walk must terminate.
	period := []byte("ACGGTCA")
	var s []byte
	for i := 0; i < 50; i++ {
		s = append(s, period...)
	}
	var reads []seq.Record
	for i := 0; i+40 <= len(s); i += 5 {
		reads = append(reads, seq.Record{ID: fmt.Sprintf("r%d", i), Seq: s[i : i+40]})
	}
	if _, err := Assemble(reads, Config{K: 5, MinAbundance: 1, MinContigLen: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestCounterSharding(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := newCounter()
	batch := make([][]kmer.Word, countShards)
	words := make([]kmer.Word, 500)
	for i := range words {
		words[i] = kmer.Word(rng.Intn(100))
		s := shardOf(words[i])
		batch[s] = append(batch[s], words[i])
	}
	c.addBatch(batch)
	c.addBatch(batch)
	want := map[kmer.Word]int{}
	for _, w := range words {
		want[w] += 2
	}
	if c.distinct() != len(want) {
		t.Errorf("distinct %d want %d", c.distinct(), len(want))
	}
	solid := c.solidCounts(2)
	if len(solid) != len(want) {
		t.Errorf("solid %d want %d", len(solid), len(want))
	}
	for w, n := range solid {
		if int(n) != want[w] {
			t.Errorf("count of %d = %d want %d", w, n, want[w])
		}
	}
	high := c.solidCounts(1000)
	if len(high) != 0 {
		t.Errorf("absurd threshold kept %d k-mers", len(high))
	}
}
