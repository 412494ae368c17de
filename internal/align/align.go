// Package align provides pairwise sequence alignment: banded fit
// alignment (all of a segment against a subject window, end gaps in
// the subject free) and local (Smith-Waterman) alignment, plus
// percent-identity computation. It substitutes for BLAST in the
// paper's Fig. 9 analysis, where each mapped ⟨read end, contig⟩ pair
// is aligned to measure identity.
package align

import (
	"fmt"
	"strings"

	"repro/internal/seq"
)

// Scoring holds the (linear-gap) alignment scores.
type Scoring struct {
	Match    int // ≥ 0
	Mismatch int // ≤ 0
	Gap      int // ≤ 0
}

// DefaultScoring is a standard +1/-1/-1 scheme.
func DefaultScoring() Scoring { return Scoring{Match: 1, Mismatch: -1, Gap: -1} }

// CigarOp is one run of a CIGAR string. Op follows SAM conventions
// with a (the query) as the first sequence: 'M' aligned column
// (match or mismatch), 'I' insertion in a (gap in b), 'D' deletion
// from a (gap in a).
type CigarOp struct {
	Op  byte
	Len int
}

// Result reports an alignment.
type Result struct {
	Score int
	// Matches, Mismatches, Gaps count aligned columns by type.
	Matches, Mismatches, Gaps int
	// AStart/AEnd and BStart/BEnd are the aligned spans (half-open);
	// for global alignment these cover the full sequences.
	AStart, AEnd int
	BStart, BEnd int
	// Ops is the CIGAR of the aligned region (leading/trailing free
	// gaps of fit and local alignments are not included).
	Ops []CigarOp
}

// CIGAR renders Ops as a SAM-style string ("" when empty).
func (r Result) CIGAR() string {
	var b strings.Builder
	for _, op := range r.Ops {
		fmt.Fprintf(&b, "%d%c", op.Len, op.Op)
	}
	return b.String()
}

// cigarBuilder accumulates ops during (reverse-order) traceback and
// finalizes them in forward order with runs merged.
type cigarBuilder struct {
	rev []CigarOp
}

func (cb *cigarBuilder) add(op byte, n int) {
	if n <= 0 {
		return
	}
	if len(cb.rev) > 0 && cb.rev[len(cb.rev)-1].Op == op {
		cb.rev[len(cb.rev)-1].Len += n
		return
	}
	cb.rev = append(cb.rev, CigarOp{Op: op, Len: n})
}

func (cb *cigarBuilder) finish() []CigarOp {
	for i, j := 0, len(cb.rev)-1; i < j; i, j = i+1, j-1 {
		cb.rev[i], cb.rev[j] = cb.rev[j], cb.rev[i]
	}
	return cb.rev
}

// AlignedColumns is the alignment length in columns.
func (r Result) AlignedColumns() int { return r.Matches + r.Mismatches + r.Gaps }

// Identity is Matches / AlignedColumns, in [0,1]; 0 for empty
// alignments.
func (r Result) Identity() float64 {
	n := r.AlignedColumns()
	if n == 0 {
		return 0
	}
	return float64(r.Matches) / float64(n)
}

// PercentIdentity is Identity×100.
func (r Result) PercentIdentity() float64 { return 100 * r.Identity() }

func (r Result) String() string {
	return fmt.Sprintf("score=%d id=%.2f%% a=[%d,%d) b=[%d,%d)",
		r.Score, r.PercentIdentity(), r.AStart, r.AEnd, r.BStart, r.BEnd)
}

const negInf = -1 << 30

// Local computes an (unbanded) Smith-Waterman local alignment. It is
// O(len(a)·len(b)) time and memory for the traceback matrix, intended
// for segment-scale inputs (a few kbp).
func Local(a, b []byte, sc Scoring) Result {
	la, lb := len(a), len(b)
	if la == 0 || lb == 0 {
		return Result{}
	}
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	trace := make([][]byte, la+1) // 0=stop, 1=diag, 2=up, 3=left
	for i := range trace {
		trace[i] = make([]byte, lb+1)
	}
	bestScore, bi, bj := 0, 0, 0
	for i := 1; i <= la; i++ {
		for j := 1; j <= lb; j++ {
			s := sc.Mismatch
			if a[i-1] == b[j-1] {
				s = sc.Match
			}
			v, dir := 0, byte(0)
			if d := prev[j-1] + s; d > v {
				v, dir = d, 1
			}
			if u := prev[j] + sc.Gap; u > v {
				v, dir = u, 2
			}
			if l := cur[j-1] + sc.Gap; l > v {
				v, dir = l, 3
			}
			cur[j] = v
			trace[i][j] = dir
			if v > bestScore {
				bestScore, bi, bj = v, i, j
			}
		}
		prev, cur = cur, prev
		for j := range cur {
			cur[j] = 0
		}
	}
	res := Result{Score: bestScore, AEnd: bi, BEnd: bj}
	var cb cigarBuilder
	i, j := bi, bj
	for i > 0 && j > 0 && trace[i][j] != 0 {
		switch trace[i][j] {
		case 1:
			if a[i-1] == b[j-1] {
				res.Matches++
			} else {
				res.Mismatches++
			}
			cb.add('M', 1)
			i--
			j--
		case 2:
			res.Gaps++
			cb.add('I', 1)
			i--
		default:
			res.Gaps++
			cb.add('D', 1)
			j--
		}
	}
	res.AStart, res.BStart = i, j
	res.Ops = cb.finish()
	return res
}

// SegmentIdentity aligns a query segment to a subject, local-first: it
// returns the percent identity of the best local alignment, which is
// the statistic Fig. 9 reports per mapped pair. To bound cost on long
// subjects the subject is pre-cropped around the best shared-k-mer
// anchor when it exceeds 4× the segment length.
func SegmentIdentity(segment, subject []byte, sc Scoring) Result {
	if len(subject) > 4*len(segment) && len(segment) > 0 {
		if start, ok := anchorCrop(segment, subject); ok {
			lo := start - len(segment)
			if lo < 0 {
				lo = 0
			}
			hi := start + 2*len(segment)
			if hi > len(subject) {
				hi = len(subject)
			}
			sub := Local(segment, subject[lo:hi], sc)
			sub.BStart += lo
			sub.BEnd += lo
			return sub
		}
	}
	return Local(segment, subject, sc)
}

// BestStrandIdentity aligns the segment and its reverse complement
// against the subject and returns the better result. Sketch mapping is
// canonical (strand-oblivious), so a mapped pair may be in either
// relative orientation.
func BestStrandIdentity(segment, subject []byte, sc Scoring) Result {
	fwd := SegmentIdentity(segment, subject, sc)
	rc := SegmentIdentity(seq.ReverseComplement(segment), subject, sc)
	if rc.Score > fwd.Score {
		return rc
	}
	return fwd
}

// anchorCrop finds an exact 16-mer of the segment in the subject and
// returns the subject offset of the first shared 16-mer, so long
// subjects can be cropped before the quadratic local alignment.
func anchorCrop(segment, subject []byte) (int, bool) {
	j, _, ok := anchor(segment, subject)
	return j, ok
}

// anchor locates the first exact 16-mer shared by segment and subject,
// returning the subject offset j and the segment offset i of the seed.
func anchor(segment, subject []byte) (j, i int, ok bool) {
	const ak = 16
	if len(segment) < ak || len(subject) < ak {
		return 0, 0, false
	}
	seeds := make(map[string]int, len(segment)/4)
	for si := 0; si+ak <= len(segment); si += 4 {
		key := string(segment[si : si+ak])
		if _, dup := seeds[key]; !dup {
			seeds[key] = si
		}
	}
	for sj := 0; sj+ak <= len(subject); sj++ {
		if si, hit := seeds[string(subject[sj:sj+ak])]; hit {
			return sj, si, true
		}
	}
	return 0, 0, false
}

// FastIdentityStranded estimates the percent identity of a segment
// against a subject quickly enough for per-candidate verification: it
// anchors the segment with an exact shared 16-mer (trying both
// strands), crops the subject to the implied window, and runs a banded
// fit alignment there. Segments with no exact shared seed score 0 —
// exactly the candidates verification should reject. The band absorbs
// indel drift of up to ±band/2 bases across the segment. reverse=true
// means the segment aligned as its reverse complement (the CIGAR then
// describes the reverse-complemented segment against the subject
// forward strand, the SAM convention for flag 0x10).
func FastIdentityStranded(segment, subject []byte, sc Scoring, band int) (Result, bool) {
	if band <= 0 {
		band = 64
	}
	if r, ok := fastIdentityOneStrand(segment, subject, sc, band); ok {
		return r, false
	}
	rcSeg := seq.ReverseComplement(segment)
	if r, ok := fastIdentityOneStrand(rcSeg, subject, sc, band); ok {
		return r, true
	}
	return Result{}, false
}

func fastIdentityOneStrand(segment, subject []byte, sc Scoring, band int) (Result, bool) {
	j, i, ok := anchor(segment, subject)
	if !ok {
		return Result{}, false
	}
	start := j - i
	pad := band
	lo := start - pad
	if lo < 0 {
		lo = 0
	}
	hi := start + len(segment) + pad
	if hi > len(subject) {
		hi = len(subject)
	}
	window := subject[lo:hi]
	r := Fit(segment, window, sc, band)
	r.BStart += lo
	r.BEnd += lo
	return r, true
}

// Fit computes a banded fit alignment: the whole of a is aligned, but
// gaps before and after a's span in b are free and uncounted —
// the right shape for scoring a segment against a cropped subject
// window. The band bounds |(j−i) − drift| loosely: row i may use
// columns j with j−i in [−band, (len(b)−len(a))+band].
func Fit(a, b []byte, sc Scoring, band int) Result {
	la, lb := len(a), len(b)
	if la == 0 {
		return Result{BEnd: 0}
	}
	if lb == 0 {
		return Result{Gaps: la, Score: la * sc.Gap, AEnd: la}
	}
	if band < 1 {
		band = 1
	}
	// The offset range must include 0 (a starts at b's start) and
	// lb−la (a ends at b's end) regardless of which sequence is
	// longer, padded by the band.
	dLo := -band
	if v := lb - la - band; v < dLo {
		dLo = v
	}
	dHi := band
	if v := lb - la + band; v > dHi {
		dHi = v
	}
	width := dHi - dLo + 1
	prev := make([]int, width)
	cur := make([]int, width)
	trace := make([][]byte, la+1) // 0=diag, 1=up(gap in b), 2=left(gap in a)
	for i := range trace {
		trace[i] = make([]byte, width)
	}
	// Row 0: leading subject gaps are free.
	for d := 0; d < width; d++ {
		j := dLo + d
		if j < 0 || j > lb {
			prev[d] = negInf
		} else {
			prev[d] = 0
		}
	}
	for i := 1; i <= la; i++ {
		for d := 0; d < width; d++ {
			j := i + dLo + d
			if j < 0 || j > lb {
				cur[d] = negInf
				continue
			}
			best := negInf
			var dir byte
			if j > 0 { // diagonal: (i-1, j-1) → same offset d
				if v := prev[d]; v > negInf/2 {
					s := sc.Mismatch
					if a[i-1] == b[j-1] {
						s = sc.Match
					}
					if v+s > best {
						best, dir = v+s, 0
					}
				}
			}
			if d+1 < width { // up: (i-1, j) → offset d+1
				if v := prev[d+1]; v > negInf/2 && v+sc.Gap > best {
					best, dir = v+sc.Gap, 1
				}
			}
			if d > 0 { // left: (i, j-1) → offset d-1
				if v := cur[d-1]; v > negInf/2 && v+sc.Gap > best {
					best, dir = v+sc.Gap, 2
				}
			}
			if j == 0 { // all of a so far is gapped
				best, dir = i*sc.Gap, 1
			}
			cur[d] = best
			trace[i][d] = dir
		}
		prev, cur = cur, prev
	}
	// Trailing subject gaps are free: best cell anywhere in row la.
	res := Result{AEnd: la}
	bestD := -1
	for d := 0; d < width; d++ {
		j := la + dLo + d
		if j < 0 || j > lb || prev[d] <= negInf/2 {
			continue
		}
		if bestD < 0 || prev[d] > prev[bestD] {
			bestD = d
		}
	}
	if bestD < 0 {
		return Result{}
	}
	res.Score = prev[bestD]
	var cb cigarBuilder
	i, j := la, la+dLo+bestD
	res.BEnd = j
	for i > 0 && j >= 0 {
		if j == 0 {
			res.Gaps += i
			cb.add('I', i)
			i = 0
			break
		}
		d := j - i - dLo
		switch trace[i][d] {
		case 0:
			if a[i-1] == b[j-1] {
				res.Matches++
			} else {
				res.Mismatches++
			}
			cb.add('M', 1)
			i--
			j--
		case 1:
			res.Gaps++
			cb.add('I', 1)
			i--
		default:
			res.Gaps++
			cb.add('D', 1)
			j--
		}
	}
	res.BStart = j
	res.Ops = cb.finish()
	return res
}
