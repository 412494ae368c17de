// Package truth constructs the quality benchmark of §IV-B and scores
// mappings against it.
//
// The paper located contigs and long reads on the full reference with
// Minimap2 and declared an end segment e to truly map to a contig c
// iff their reference intervals intersect in at least k positions.
// Here simulated reads carry exact coordinates, and contigs are
// located with an anchor-vote scheme: unique reference k-mers shared
// with the contig vote for an (orientation, offset) hypothesis, and
// the winning hypothesis places the contig. Contigs assembled from
// low-error short reads place unambiguously in practice.
package truth

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/kmer"
	"repro/internal/seq"
	"repro/internal/simulate"
)

// Interval is a located span on the reference.
type Interval struct {
	Chrom      int
	Start, End int // half-open
	Reverse    bool
	// Votes is the number of anchors supporting the placement (0 for
	// intervals with exact provenance, e.g. simulated reads).
	Votes int
}

// Overlap returns the size of the intersection of two intervals, or 0
// when they are on different chromosomes or disjoint.
func (iv Interval) Overlap(other Interval) int {
	if iv.Chrom != other.Chrom {
		return 0
	}
	lo := iv.Start
	if other.Start > lo {
		lo = other.Start
	}
	hi := iv.End
	if other.End < hi {
		hi = other.End
	}
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// RefIndex indexes the unique canonical k-mers of a reference.
type RefIndex struct {
	K int
	// pos maps a canonical k-mer to its packed position
	// (chrom<<40 | offset) when the k-mer occurs exactly once;
	// multi-occurring k-mers are recorded in multi and excluded.
	pos   map[kmer.Word]uint64
	multi map[kmer.Word]struct{}
}

const chromShift = 40

// NewRefIndex builds an index over the chromosome records.
func NewRefIndex(chromosomes []seq.Record, k int) *RefIndex {
	ix := &RefIndex{
		K:     k,
		pos:   make(map[kmer.Word]uint64),
		multi: make(map[kmer.Word]struct{}),
	}
	for chrom := range chromosomes {
		it := kmer.NewIterator(chromosomes[chrom].Seq, k)
		for {
			_, canon, p, ok := it.Next()
			if !ok {
				break
			}
			if _, dup := ix.multi[canon]; dup {
				continue
			}
			if _, seen := ix.pos[canon]; seen {
				delete(ix.pos, canon)
				ix.multi[canon] = struct{}{}
				continue
			}
			ix.pos[canon] = uint64(chrom)<<chromShift | uint64(p)
		}
	}
	return ix
}

// Locate places a sequence on the reference by anchor voting. stride
// controls anchor sampling (1 = every k-mer; larger is faster).
// ok=false when fewer than minVotes anchors agree on a placement.
func (ix *RefIndex) Locate(s []byte, stride, minVotes int) (Interval, bool) {
	if stride < 1 {
		stride = 1
	}
	if minVotes < 1 {
		minVotes = 1
	}
	type key struct {
		chrom int
		diff  int // fwd: p - i ; rev: p + i
		rev   bool
	}
	votes := make(map[key]int)
	it := kmer.NewIterator(s, ix.K)
	n := 0
	for {
		_, canon, i, ok := it.Next()
		if !ok {
			break
		}
		n++
		if n%stride != 0 {
			continue
		}
		packed, ok := ix.pos[canon]
		if !ok {
			continue
		}
		chrom := int(packed >> chromShift)
		p := int(packed & (1<<chromShift - 1))
		// Canonical matching hides relative orientation, so vote both
		// hypotheses per anchor: the true one accumulates on a single
		// offset, the false one spreads across offsets.
		votes[key{chrom, p - i, false}]++
		votes[key{chrom, p + i, true}]++
	}
	var best key
	bestVotes := 0
	for k2, v := range votes {
		if v > bestVotes || (v == bestVotes && less(k2, best)) {
			best, bestVotes = k2, v
		}
	}
	if bestVotes < minVotes {
		return Interval{}, false
	}
	iv := Interval{Chrom: best.chrom, Reverse: best.rev, Votes: bestVotes}
	if !best.rev {
		iv.Start = best.diff
		iv.End = best.diff + len(s)
	} else {
		// rev: ref position p of anchor i satisfies p + i = start + len - k
		iv.Start = best.diff - len(s) + ix.K
		iv.End = iv.Start + len(s)
	}
	if iv.Start < 0 {
		iv.Start = 0
	}
	return iv, true
}

func less(a, b struct {
	chrom int
	diff  int
	rev   bool
}) bool {
	if a.chrom != b.chrom {
		return a.chrom < b.chrom
	}
	if a.diff != b.diff {
		return a.diff < b.diff
	}
	return !a.rev && b.rev
}

// SegmentInterval derives the reference interval of an end segment of
// a simulated read. l is the segment length; kind selects the prefix
// or suffix segment of the read as sequenced (which maps to the
// opposite genomic end for reverse-strand reads).
func SegmentInterval(r simulate.Read, kind core.SegmentKind, l int) Interval {
	readLen := r.End - r.Start
	if l > readLen {
		l = readLen
	}
	atLeft := (kind == core.Prefix) == (r.Strand == simulate.Forward)
	iv := Interval{Chrom: r.Chrom, Reverse: r.Strand == simulate.Reverse}
	if atLeft {
		iv.Start, iv.End = r.Start, r.Start+l
	} else {
		iv.Start, iv.End = r.End-l, r.End
	}
	return iv
}

// Benchmark holds, for every end segment, the set of truly mapping
// contigs.
type Benchmark struct {
	K int
	// ContigIntervals[i] is the placement of contig i (Votes==0 and
	// End==Start when unplaced).
	ContigIntervals []Interval
	// truth[segmentKey] = sorted contig ids whose placement intersects
	// the segment's interval in ≥ K positions.
	truth map[segKey][]int32
	// Placed is the number of contigs that could be located.
	Placed int
}

type segKey struct {
	read int32
	kind core.SegmentKind
}

// BuildOptions tunes benchmark construction.
type BuildOptions struct {
	// Stride samples contig anchors (default 4).
	Stride int
	// MinVotes is the minimum agreeing anchors to place a contig
	// (default 3).
	MinVotes int
}

func (o BuildOptions) withDefaults() BuildOptions {
	if o.Stride == 0 {
		o.Stride = 4
	}
	if o.MinVotes == 0 {
		o.MinVotes = 3
	}
	return o
}

// Build constructs the benchmark: locate every contig, derive every
// segment interval, and enumerate the ≥k-intersection pairs.
func Build(chromosomes []seq.Record, contigs []seq.Record, reads []simulate.Read, l, k int, opt BuildOptions) (*Benchmark, error) {
	if k <= 0 {
		return nil, fmt.Errorf("truth: k=%d must be positive", k)
	}
	opt = opt.withDefaults()
	ix := NewRefIndex(chromosomes, k)

	b := &Benchmark{
		K:               k,
		ContigIntervals: make([]Interval, len(contigs)),
		truth:           make(map[segKey][]int32, 2*len(reads)),
	}
	// Place contigs and bucket them per chromosome sorted by start.
	type placed struct {
		id int32
		iv Interval
	}
	byChrom := make(map[int][]placed)
	maxLen := make(map[int]int)
	for i := range contigs {
		iv, ok := ix.Locate(contigs[i].Seq, opt.Stride, opt.MinVotes)
		if !ok {
			continue
		}
		b.ContigIntervals[i] = iv
		b.Placed++
		byChrom[iv.Chrom] = append(byChrom[iv.Chrom], placed{int32(i), iv})
		if n := iv.End - iv.Start; n > maxLen[iv.Chrom] {
			maxLen[iv.Chrom] = n
		}
	}
	for c := range byChrom {
		list := byChrom[c]
		sort.Slice(list, func(i, j int) bool { return list[i].iv.Start < list[j].iv.Start })
	}

	// Enumerate true pairs per segment.
	for ri := range reads {
		segs, kinds := core.EndSegments(reads[ri].Rec.Seq, l)
		_ = segs
		for _, kind := range kinds {
			siv := SegmentInterval(reads[ri], kind, l)
			list := byChrom[siv.Chrom]
			if len(list) == 0 {
				continue
			}
			// Candidates start in [siv.Start - maxLen, siv.End).
			lo := sort.Search(len(list), func(i int) bool {
				return list[i].iv.Start >= siv.Start-maxLen[siv.Chrom]
			})
			var hits []int32
			for i := lo; i < len(list) && list[i].iv.Start < siv.End; i++ {
				if siv.Overlap(list[i].iv) >= k {
					hits = append(hits, list[i].id)
				}
			}
			if len(hits) > 0 {
				b.truth[segKey{int32(ri), kind}] = hits
			}
		}
	}
	return b, nil
}

// True returns the truly-mapping contig ids for a segment (nil when
// none).
func (b *Benchmark) True(read int32, kind core.SegmentKind) []int32 {
	return b.truth[segKey{read, kind}]
}

// Pairs returns the total number of true ⟨segment, contig⟩ pairs.
func (b *Benchmark) Pairs() int {
	n := 0
	for _, v := range b.truth {
		n += len(v)
	}
	return n
}

// Confusion tallies the four outcome classes of §IV-B.
type Confusion struct {
	TP, FP, FN, TN int
}

// Precision is TP/(TP+FP); 1 when no positives were output.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 1
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall is TP/(TP+FN); 1 when there are no true pairs.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 1
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 is the harmonic mean of precision and recall.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

func (c Confusion) String() string {
	return fmt.Sprintf("TP=%d FP=%d FN=%d TN=%d precision=%.4f recall=%.4f",
		c.TP, c.FP, c.FN, c.TN, c.Precision(), c.Recall())
}

// Evaluate scores mapper results against the benchmark, one outcome
// per end segment: an output pair in the truth set is a TP; an output
// pair outside it is an FP (and, when the segment had true contigs, a
// missed mapping — counted once as FN per the paper's "room for only
// one best hit" argument); a segment with true contigs and no (or a
// wrong) output is an FN; a segment with no true contigs and no
// output is a TN.
func (b *Benchmark) Evaluate(results []core.Result) Confusion {
	var c Confusion
	for _, r := range results {
		trueSet := b.True(r.ReadIndex, r.Kind)
		switch {
		case r.Mapped() && contains(trueSet, r.Subject):
			c.TP++
		case r.Mapped():
			c.FP++
			if len(trueSet) > 0 {
				c.FN++
			}
		case len(trueSet) > 0:
			c.FN++
		default:
			c.TN++
		}
	}
	return c
}

func contains(list []int32, v int32) bool {
	for _, x := range list {
		if x == v {
			return true
		}
	}
	return false
}
