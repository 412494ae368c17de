package jem

import (
	"cmp"
	"fmt"

	"repro/internal/align"
	"repro/internal/core"
	"repro/internal/seq"
)

// The SAM format's verification: each segment's top verifyTopX sketch
// candidates are rescored by banded local alignment, and a winner under
// verifyMinIdentity percent identity leaves the segment unmapped.
const (
	verifyTopX        = 3
	verifyMinIdentity = 80
)

// samRow is FormatSAM's row: an end segment whose best hit was chosen
// by banded alignment among the sketch's top-x candidates — trading a
// little alignment work (x alignments per segment instead of |S|) for
// precision on repetitive inputs.
type samRow struct {
	Mapping
	seg      []byte  // the segment's bases, as read
	identity float64 // percent identity of the winning alignment
	cigar    string  // the winning alignment's CIGAR (query = segment)
	pos      int     // 0-based start of the alignment on the contig
	reverse  bool    // the segment aligned as its reverse complement
}

// samEnd is FormatSAM's row function.
func (m *Mapper) samEnd(sess *core.Session, e core.End) samRow {
	hits := sess.MapSegmentTopK(e.Seq, verifyTopX)
	bestIdx, bestRev := -1, false
	var best align.Result
	for hi, h := range hits {
		res, rev := align.FastIdentityStranded(e.Seq, m.contigs[h.Subject].Seq, align.DefaultScoring(), 64)
		if bestIdx < 0 || res.Score > best.Score {
			best, bestRev, bestIdx = res, rev, hi
		}
	}
	if bestIdx < 0 || best.PercentIdentity() < verifyMinIdentity {
		return samRow{Mapping: toMapping(e.Result(core.Hit{}, false), e.ID, m.contigName)}
	}
	return samRow{
		Mapping:  toMapping(e.Result(hits[bestIdx], true), e.ID, m.contigName),
		seg:      e.Seq,
		identity: best.PercentIdentity(),
		cigar:    best.CIGAR(),
		pos:      best.BStart,
		reverse:  bestRev,
	}
}

// appendSAMHeader is FormatSAM's header: @HD, one @SQ per contig, @PG.
func (m *Mapper) appendSAMHeader(b []byte) []byte {
	b = append(b, "@HD\tVN:1.6\tSO:unknown\n"...)
	for i := 0; i < m.NumContigs(); i++ {
		meta := m.core.Subject(int32(i))
		b = fmt.Appendf(b, "@SQ\tSN:%s\tLN:%d\n", meta.Name, meta.Length)
	}
	return append(b, "@PG\tID:jem-mapper\tPN:jem-mapper\n"...)
}

// appendSAMRow is FormatSAM's encoder.
func (m *Mapper) appendSAMRow(b []byte, r *samRow, _ streamWork) []byte {
	if !r.Mapped {
		return fmt.Appendf(b, "%s/%s\t4\t*\t0\t0\t*\t*\t0\t0\t*\t*\n", r.ReadID, r.End)
	}
	flag, segment := 0, r.seg
	if r.reverse {
		flag, segment = 0x10, seq.ReverseComplement(segment)
	}
	return fmt.Appendf(b, "%s/%s\t%d\t%s\t%d\t%d\t%s\t*\t0\t0\t%s\t*\tjm:i:%d\tpi:f:%.2f\n",
		r.ReadID, r.End, flag, r.ContigID, r.pos+1, min(60, 60*r.SharedTrials/m.opts.Trials),
		cmp.Or(r.cigar, "*"), segment, r.SharedTrials, r.identity)
}
