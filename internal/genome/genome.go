// Package genome synthesizes reference genomes with controllable
// repeat structure. It substitutes for the NCBI GenBank downloads used
// by the paper: the mapping algorithms are content-agnostic, so the
// quality-relevant properties — length, GC composition, and above all
// repeat density (which drives false-positive mappings on the complex
// eukaryotic inputs) — are exposed as generator knobs.
package genome

import (
	"fmt"
	"math/rand"

	"repro/internal/seq"
)

// Config describes a synthetic genome.
type Config struct {
	// Name labels the genome (used in record IDs).
	Name string
	// Length is the total genome length in bases.
	Length int
	// GC is the target G+C fraction (0..1); 0 means 0.5.
	GC float64
	// RepeatFraction is the fraction of the genome covered by copies
	// of repeat families (0..1). Higher values emulate complex
	// eukaryotic genomes.
	RepeatFraction float64
	// RepeatFamilies is the number of distinct repeat elements; 0
	// picks a default proportional to the repeat fraction.
	RepeatFamilies int
	// RepeatUnit is the length of each repeat element in bases; 0
	// means 500.
	RepeatUnit int
	// RepeatDivergence is the per-base mutation probability applied
	// independently to every planted repeat copy, so copies are
	// near-identical rather than exact (0..1).
	RepeatDivergence float64
	// RepeatRegionFraction confines repeat copies to this fraction of
	// the genome (0..1; 0 means 0.5). Real genomes interleave
	// repeat-dense regions with long clean stretches; the clean
	// stretches are what lets assemblers produce the long contigs on
	// which whole-sequence MinHash degrades, so clustering matters for
	// reproducing the paper's Fig. 6 gap.
	RepeatRegionFraction float64
	// RepeatRegionSize is the granularity of repeat-permitted blocks
	// in bases; 0 means 20000.
	RepeatRegionSize int
	// Heterozygosity plants this per-base SNP rate between the two
	// haplotypes of a diploid genome (0 = haploid). The second
	// haplotype is exposed via Genome.Haplotype2; sequencing both
	// creates the SNP bubbles real assemblers must pop.
	Heterozygosity float64
	// GapFraction covers this fraction of the genome with 'N' runs
	// (assembly gaps / unsequenceable regions, 0..1). Gaps exercise
	// the ambiguity handling of every downstream consumer.
	GapFraction float64
	// GapUnit is the length of each N run; 0 means 1000.
	GapUnit int
	// Chromosomes splits the genome into this many records; 0 means 1.
	Chromosomes int
	// Seed drives the generator; the same config yields the same
	// genome.
	Seed int64
}

// Validate checks config sanity.
func (c Config) Validate() error {
	if c.Length <= 0 {
		return fmt.Errorf("genome: length %d must be positive", c.Length)
	}
	if c.GC < 0 || c.GC > 1 {
		return fmt.Errorf("genome: gc %v out of [0,1]", c.GC)
	}
	if c.RepeatFraction < 0 || c.RepeatFraction > 1 {
		return fmt.Errorf("genome: repeat fraction %v out of [0,1]", c.RepeatFraction)
	}
	if c.RepeatDivergence < 0 || c.RepeatDivergence > 1 {
		return fmt.Errorf("genome: repeat divergence %v out of [0,1]", c.RepeatDivergence)
	}
	if c.RepeatRegionFraction < 0 || c.RepeatRegionFraction > 1 {
		return fmt.Errorf("genome: repeat region fraction %v out of [0,1]", c.RepeatRegionFraction)
	}
	if c.GapFraction < 0 || c.GapFraction > 0.5 {
		return fmt.Errorf("genome: gap fraction %v out of [0,0.5]", c.GapFraction)
	}
	if c.Heterozygosity < 0 || c.Heterozygosity > 0.1 {
		return fmt.Errorf("genome: heterozygosity %v out of [0,0.1]", c.Heterozygosity)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.GC == 0 {
		c.GC = 0.5
	}
	if c.RepeatUnit == 0 {
		c.RepeatUnit = 500
	}
	if c.Chromosomes <= 0 {
		c.Chromosomes = 1
	}
	if c.RepeatFamilies <= 0 {
		c.RepeatFamilies = 1 + int(20*c.RepeatFraction)
	}
	if c.RepeatRegionFraction == 0 {
		c.RepeatRegionFraction = 0.5
	}
	if c.RepeatRegionSize == 0 {
		c.RepeatRegionSize = 20000
	}
	if c.Name == "" {
		c.Name = "synthetic"
	}
	return c
}

// Genome is a generated reference: the concatenated sequence plus the
// chromosome records view over it.
type Genome struct {
	Config  Config
	Seq     []byte       // the full concatenated sequence (haplotype 1)
	Records []seq.Record // per-chromosome views aliasing Seq
	// Offsets[i] is the start of Records[i] within Seq.
	Offsets []int
	// Haplotype2 holds the second haplotype's chromosome records when
	// Heterozygosity > 0 (nil otherwise). Coordinates are identical to
	// Records' (SNPs only, no indels), so read ground truth from
	// either haplotype maps onto haplotype-1 coordinates.
	Haplotype2 []seq.Record
}

// Generate builds a genome from the config.
func Generate(c Config) (*Genome, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	c = c.withDefaults()
	rng := rand.New(rand.NewSource(c.Seed))

	s := randomSeq(rng, c.Length, c.GC)
	plantRepeats(rng, s, c)
	plantGaps(rng, s, c)

	g := &Genome{Config: c, Seq: s}
	chrLen := c.Length / c.Chromosomes
	for i := 0; i < c.Chromosomes; i++ {
		start := i * chrLen
		end := start + chrLen
		if i == c.Chromosomes-1 {
			end = c.Length
		}
		g.Offsets = append(g.Offsets, start)
		g.Records = append(g.Records, seq.Record{
			ID:  fmt.Sprintf("%s.chr%d", c.Name, i+1),
			Seq: s[start:end],
		})
	}
	if c.Heterozygosity > 0 {
		h2 := append([]byte(nil), s...)
		for i := range h2 {
			if _, valid := seq.Code(h2[i]); valid && rng.Float64() < c.Heterozygosity {
				h2[i] = mutate(rng, h2[i])
			}
		}
		for i, r := range g.Records {
			start := g.Offsets[i]
			g.Haplotype2 = append(g.Haplotype2, seq.Record{
				ID:  r.ID + ".hap2",
				Seq: h2[start : start+len(r.Seq)],
			})
		}
	}
	return g, nil
}

// randomSeq draws length bases with the given GC fraction.
func randomSeq(rng *rand.Rand, length int, gc float64) []byte {
	s := make([]byte, length)
	for i := range s {
		if rng.Float64() < gc {
			if rng.Intn(2) == 0 {
				s[i] = 'G'
			} else {
				s[i] = 'C'
			}
		} else {
			if rng.Intn(2) == 0 {
				s[i] = 'A'
			} else {
				s[i] = 'T'
			}
		}
	}
	return s
}

// plantRepeats overwrites RepeatFraction of the genome with mutated
// copies of the repeat families. Copies land only inside
// repeat-permitted blocks covering RepeatRegionFraction of the genome,
// so the rest stays clean and assembles into long contigs.
func plantRepeats(rng *rand.Rand, s []byte, c Config) {
	if c.RepeatFraction <= 0 || c.RepeatUnit >= len(s) {
		return
	}
	families := make([][]byte, c.RepeatFamilies)
	for i := range families {
		families[i] = randomSeq(rng, c.RepeatUnit, c.GC)
	}
	// Choose repeat-permitted blocks.
	nBlocks := (len(s) + c.RepeatRegionSize - 1) / c.RepeatRegionSize
	permitted := make([]int, 0, nBlocks)
	for b := 0; b < nBlocks; b++ {
		if rng.Float64() < c.RepeatRegionFraction {
			permitted = append(permitted, b)
		}
	}
	if len(permitted) == 0 {
		permitted = append(permitted, rng.Intn(nBlocks))
	}
	target := int(float64(len(s)) * c.RepeatFraction)
	planted := 0
	attempts := 0
	for planted < target && attempts < 50*nBlocks+1000 {
		attempts++
		fam := families[rng.Intn(len(families))]
		block := permitted[rng.Intn(len(permitted))]
		lo := block * c.RepeatRegionSize
		hi := lo + c.RepeatRegionSize
		if hi > len(s) {
			hi = len(s)
		}
		if hi-lo < len(fam) {
			continue
		}
		pos := lo + rng.Intn(hi-lo-len(fam)+1)
		copyRepeat(rng, s[pos:pos+len(fam)], fam, c.RepeatDivergence)
		planted += len(fam)
	}
}

// plantGaps overwrites GapFraction of the genome with runs of 'N'.
func plantGaps(rng *rand.Rand, s []byte, c Config) {
	if c.GapFraction <= 0 {
		return
	}
	unit := c.GapUnit
	if unit <= 0 {
		unit = 1000
	}
	if unit > len(s) {
		unit = len(s)
	}
	target := int(float64(len(s)) * c.GapFraction)
	planted := 0
	for planted < target {
		pos := rng.Intn(len(s) - unit + 1)
		for i := pos; i < pos+unit; i++ {
			s[i] = 'N'
		}
		planted += unit
	}
}

// copyRepeat writes a possibly reverse-complemented, point-mutated
// copy of fam into dst.
func copyRepeat(rng *rand.Rand, dst, fam []byte, divergence float64) {
	if rng.Intn(2) == 0 {
		copy(dst, fam)
	} else {
		copy(dst, seq.ReverseComplement(fam))
	}
	if divergence <= 0 {
		return
	}
	for i := range dst {
		if rng.Float64() < divergence {
			dst[i] = mutate(rng, dst[i])
		}
	}
}

// mutate returns a uniformly random base different from b.
func mutate(rng *rand.Rand, b byte) byte {
	for {
		nb := seq.Code2Base[rng.Intn(4)]
		if nb != b {
			return nb
		}
	}
}
