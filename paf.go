package jem

import (
	"context"
	"fmt"

	"repro/internal/core"
)

// PositionalMapping extends Mapping with approximate coordinates: the
// segment's span on the read, the estimated target window on the
// contig (from the positional sketch table), and an estimated relative
// strand. These estimates are an extension over the paper, whose
// output is best-hit contig ids only.
type PositionalMapping struct {
	Mapping
	// QueryStart/QueryEnd is the segment's span on the read.
	QueryStart, QueryEnd int
	// TargetStart/TargetEnd is the estimated mapped window on the
	// contig (TargetStart == -1 when no estimate exists).
	TargetStart, TargetEnd int
	// Strand is '+' when the segment matches the contig forward, '-'
	// for reverse complement, and '?' when it cannot be estimated.
	Strand byte
}

// MapReadsPositional maps both end segments of every read and
// augments each mapping with positional and strand estimates. It runs
// under Map's contract: on cancellation the completed prefix comes back
// with ctx.Err().
func (m *Mapper) MapReadsPositional(ctx context.Context, reads []Record) ([]PositionalMapping, error) {
	rows, sessions, err := core.MapEnds(ctx, reads, m.opts.SegmentLen, m.opts.Workers, m.session(ctx), m.positionalEnd)
	m.publishSessions(sessions...)
	return rows, err
}

func (m *Mapper) positionalEnd(sess *core.Session, e core.End) PositionalMapping {
	hit, ok := sess.MapSegmentPositional(e.Seq)
	pm := PositionalMapping{
		Mapping:     toMapping(e.Result(hit.Hit, ok), e.ID, m.contigName),
		QueryStart:  e.Offset,
		QueryEnd:    e.Offset + len(e.Seq),
		TargetStart: -1,
		Strand:      '?',
	}
	if ok && hit.TargetStart >= 0 {
		pm.TargetStart, pm.TargetEnd = int(hit.TargetStart), int(hit.TargetEnd)
		pm.Strand = '+'
		if hit.Reverse {
			pm.Strand = '-'
		}
	}
	return pm
}

// appendPAFRow is FormatPAF's encoder.
func (m *Mapper) appendPAFRow(b []byte, pm *PositionalMapping, batch streamWork) []byte {
	if !pm.Mapped || pm.TargetStart < 0 {
		return b
	}
	strand := pm.Strand
	if strand == '?' {
		strand = '+'
	}
	segLen := pm.QueryEnd - pm.QueryStart
	return fmt.Appendf(b, "%s\t%d\t%d\t%d\t%c\t%s\t%d\t%d\t%d\t%d\t%d\t%d\tjm:i:%d\n",
		pm.ReadID, batch.spans[pm.ReadIndex-batch.base()].Seq.Len(), pm.QueryStart, pm.QueryEnd, strand,
		pm.ContigID, m.core.Subject(int32(pm.Contig)).Length, pm.TargetStart, pm.TargetEnd,
		segLen*pm.SharedTrials/m.opts.Trials, segLen, min(60, 60*pm.SharedTrials/m.opts.Trials), pm.SharedTrials)
}
