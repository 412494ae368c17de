package genome

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/kmer"
	"repro/internal/seq"
)

func TestGenerateBasics(t *testing.T) {
	g, err := Generate(Config{Name: "t", Length: 100_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Seq) != 100_000 {
		t.Errorf("length %d", len(g.Seq))
	}
	if seq.CountValid(g.Seq) != len(g.Seq) {
		t.Error("genome contains invalid bases")
	}
	if len(g.Records) != 1 || g.Records[0].ID != "t.chr1" {
		t.Errorf("records = %+v", g.Records)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	c := Config{Length: 50_000, RepeatFraction: 0.2, Seed: 9}
	g1, _ := Generate(c)
	g2, _ := Generate(c)
	if !bytes.Equal(g1.Seq, g2.Seq) {
		t.Error("same config produced different genomes")
	}
	c.Seed = 10
	g3, _ := Generate(c)
	if bytes.Equal(g1.Seq, g3.Seq) {
		t.Error("different seeds produced identical genomes")
	}
}

func TestGenerateGC(t *testing.T) {
	for _, gc := range []float64{0.3, 0.5, 0.7} {
		g, err := Generate(Config{Length: 200_000, GC: gc, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		got := seq.GC(g.Seq)
		if math.Abs(got-gc) > 0.02 {
			t.Errorf("GC target %v got %v", gc, got)
		}
	}
}

func TestGenerateChromosomes(t *testing.T) {
	g, err := Generate(Config{Length: 100_000, Chromosomes: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Records) != 4 {
		t.Fatalf("got %d chromosomes", len(g.Records))
	}
	total := 0
	for _, r := range g.Records {
		total += len(r.Seq)
	}
	if total != 100_000 {
		t.Errorf("chromosome lengths sum to %d", total)
	}
}

func TestRepeatsIncreaseDuplication(t *testing.T) {
	// A repeat-rich genome has far fewer distinct k-mers per base than
	// a repeat-free one.
	plain, err := Generate(Config{Length: 300_000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	repeaty, err := Generate(Config{Length: 300_000, RepeatFraction: 0.5, RepeatDivergence: 0.0, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	const k = 21
	d1 := len(kmer.Set(plain.Seq, k))
	d2 := len(kmer.Set(repeaty.Seq, k))
	if d2 >= d1 {
		t.Errorf("repeat genome has %d distinct k-mers, plain has %d", d2, d1)
	}
	if float64(d2) > 0.9*float64(d1) {
		t.Errorf("repeat duplication too weak: %d vs %d", d2, d1)
	}
}

func TestValidation(t *testing.T) {
	bad := []Config{
		{Length: 0},
		{Length: 100, GC: 1.5},
		{Length: 100, RepeatFraction: -0.1},
		{Length: 100, RepeatDivergence: 2},
		{Length: 100, RepeatRegionFraction: 1.2},
	}
	for _, c := range bad {
		if _, err := Generate(c); err == nil {
			t.Errorf("config %+v should be rejected", c)
		}
	}
}

func TestGaps(t *testing.T) {
	g, err := Generate(Config{Length: 100_000, GapFraction: 0.1, GapUnit: 500, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, b := range g.Seq {
		if b == 'N' {
			n++
		}
	}
	frac := float64(n) / float64(len(g.Seq))
	if frac < 0.08 || frac > 0.15 {
		t.Errorf("gap fraction %v want ~0.1", frac)
	}
	if _, err := Generate(Config{Length: 1000, GapFraction: 0.9}); err == nil {
		t.Error("absurd gap fraction should fail")
	}
}

func TestTinyGenomeWithRepeats(t *testing.T) {
	// Repeat unit larger than the genome must not hang or panic.
	g, err := Generate(Config{Length: 300, RepeatFraction: 0.5, RepeatUnit: 1000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Seq) != 300 {
		t.Errorf("length %d", len(g.Seq))
	}
}
