package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/genome"
	"repro/internal/seq"
	"repro/internal/simulate"
	"repro/internal/truth"
)

// datasetSpec sizes one generated input set. The two full-size specs
// are chosen so that different layers dominate (see README.md): d10
// has long reads over a moderately repetitive genome, so parsing and
// winnowing lead; d34r has reads barely longer than the two end
// segments over a genome whose 12 high-copy repeat families make
// posting lists long, so lookup and counting lead.
type datasetSpec struct {
	Name           string
	GenomeLen      int
	RepeatFraction float64
	RepeatFamilies int
	ReadMedian     int
	Coverage       float64
}

var (
	specD10  = datasetSpec{Name: "d10", GenomeLen: 10_000_000, RepeatFraction: 0.25, RepeatFamilies: 80, ReadMedian: 10_000, Coverage: 5}
	specD34r = datasetSpec{Name: "d34r", GenomeLen: 34_000_000, RepeatFraction: 0.4, RepeatFamilies: 12, ReadMedian: 2_000, Coverage: 0.3}
)

// scaled shrinks a spec's genome (and with it contigs, reads and
// index) by f, keeping the per-read regime: the smoke test uses it.
func (s datasetSpec) scaled(f float64) datasetSpec {
	s.GenomeLen = int(float64(s.GenomeLen) * f)
	return s
}

// Contig cutting: log-normal lengths around contigMedian, never
// shorter than contigMin, separated by uniform gaps of up to
// contigMaxGap bases that no contig covers.
const (
	contigMedian = 1500
	contigSigma  = 0.6
	contigMin    = 300
	contigMaxGap = 200
)

// dataset is one generated input set. The mapper under test sees only
// Contigs and FASTQ; Truth and ContigAt stay with the benchmark for
// scoring.
type dataset struct {
	Spec    datasetSpec
	Contigs []seq.Record
	// ContigAt[i] is the reference interval contig i was cut from.
	ContigAt []truth.Interval
	// Truth[i] carries read i's source coordinates; Recs[i] is the
	// same read as a bare record.
	Truth []simulate.Read
	Recs  []seq.Record
	// FASTQ holds every read in order; read i occupies
	// FASTQ[ReadOff[i]:ReadOff[i+1]].
	FASTQ   []byte
	ReadOff []int
}

// subSeed derives independent generator seeds from the one -seed
// (splitmix64 finaliser), so genome, cuts and reads do not share a
// random stream.
func subSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) + stream*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// generate builds the dataset for spec from seed: reference genome,
// contigs cut from it with their intervals kept, HiFi reads with their
// coordinates kept, and the FASTQ bytes the workloads feed the mapper.
func generate(spec datasetSpec, seed int64) (*dataset, error) {
	g, err := genome.Generate(genome.Config{
		Name:           spec.Name,
		Length:         spec.GenomeLen,
		RepeatFraction: spec.RepeatFraction,
		RepeatFamilies: spec.RepeatFamilies,
		Seed:           subSeed(seed, 1),
	})
	if err != nil {
		return nil, fmt.Errorf("genome %s: %w", spec.Name, err)
	}
	ds := &dataset{Spec: spec}
	ds.cutContigs(g, rand.New(rand.NewSource(subSeed(seed, 2))))
	ds.Truth, err = simulate.HiFi(g.Records, simulate.HiFiConfig{
		Coverage:  spec.Coverage,
		MedianLen: spec.ReadMedian,
		Seed:      subSeed(seed, 3),
	})
	if err != nil {
		return nil, fmt.Errorf("reads %s: %w", spec.Name, err)
	}
	ds.Recs = simulate.Records(ds.Truth)
	var total int
	for i := range ds.Truth {
		r := &ds.Truth[i].Rec
		total += len(r.ID) + len(r.Desc) + 2*len(r.Seq) + 8
	}
	buf := bytes.NewBuffer(make([]byte, 0, total))
	ds.ReadOff = make([]int, 0, len(ds.Truth)+1)
	for i := range ds.Truth {
		ds.ReadOff = append(ds.ReadOff, buf.Len())
		if err := seq.WriteFASTQ(buf, []seq.Record{ds.Truth[i].Rec}); err != nil {
			return nil, err
		}
	}
	ds.ReadOff = append(ds.ReadOff, buf.Len())
	ds.FASTQ = buf.Bytes()
	return ds, nil
}

// cutContigs slices every chromosome into contigs that alias the
// genome's bytes.
func (ds *dataset) cutContigs(g *genome.Genome, rng *rand.Rand) {
	mu := math.Log(contigMedian)
	for chrom, rec := range g.Records {
		for pos := rng.Intn(contigMaxGap + 1); pos+contigMin <= len(rec.Seq); {
			n := int(math.Exp(rng.NormFloat64()*contigSigma + mu))
			if n < contigMin {
				n = contigMin
			}
			end := pos + n
			if end > len(rec.Seq) {
				end = len(rec.Seq)
			}
			ds.Contigs = append(ds.Contigs, seq.Record{
				ID:  fmt.Sprintf("%s_c%d", ds.Spec.Name, len(ds.Contigs)),
				Seq: rec.Seq[pos:end],
			})
			ds.ContigAt = append(ds.ContigAt, truth.Interval{Chrom: chrom, Start: pos, End: end})
			pos = end + rng.Intn(contigMaxGap+1)
		}
	}
}

// reads returns the number of reads.
func (ds *dataset) reads() int { return len(ds.Truth) }

// fastq returns the FASTQ bytes of reads [from, to).
func (ds *dataset) fastq(from, to int) []byte { return ds.FASTQ[ds.ReadOff[from]:ds.ReadOff[to]] }

// contigBases sums the contig lengths.
func (ds *dataset) contigBases() int64 { return seq.TotalBases(ds.Contigs) }

// digest is the SHA-256 over everything the mapper sees: contig ids
// and sequences, then the FASTQ bytes.
func (ds *dataset) digest() string {
	h := sha256.New()
	add := func(b []byte) { _, _ = h.Write(b) } // hash.Hash.Write never returns an error
	for i := range ds.Contigs {
		add([]byte(ds.Contigs[i].ID))
		add([]byte{0})
		add(ds.Contigs[i].Seq)
		add([]byte{0})
	}
	add(ds.FASTQ)
	return hex.EncodeToString(h.Sum(nil))
}
