package jem

import (
	"context"

	"repro/internal/align"
	"repro/internal/core"
)

// VerifyOptions configures alignment-verified mapping.
type VerifyOptions struct {
	// TopX is how many sketch candidates to rescore per segment
	// (default 3).
	TopX int
	// MinIdentity drops verified mappings below this percent identity
	// (default 80).
	MinIdentity float64
}

func (v VerifyOptions) withDefaults() VerifyOptions {
	if v.TopX == 0 {
		v.TopX = 3
	}
	if v.MinIdentity == 0 {
		v.MinIdentity = 80
	}
	return v
}

// VerifiedMapping is a mapping whose best hit was chosen by banded
// alignment among the sketch's top-x candidates.
type VerifiedMapping struct {
	Mapping
	// Identity is the percent identity of the winning alignment.
	Identity float64
	// CIGAR is the winning alignment's CIGAR string (query = segment).
	CIGAR string
	// TargetStart/TargetEnd is the aligned span on the contig.
	TargetStart, TargetEnd int
	// Reverse is true when the segment aligned as its reverse
	// complement (SAM flag 0x10).
	Reverse bool
	// Rescued is true when verification changed the winner relative
	// to plain trial-count ranking.
	Rescued bool
}

// MapReadsVerified maps end segments by sketch, then rescores each
// segment's top-x candidates with a banded local alignment and reports
// the alignment winner — the paper's future-work direction (i):
// trading a little alignment work (x alignments per segment instead of
// |S|) for precision on repetitive inputs. Requires the mapper to have
// been built with contig records (NewMapper retains them; index-loaded
// mappers need them passed to LoadMapper). It runs under Map's
// contract: on cancellation the completed prefix comes back with
// ctx.Err(), and an error wrapping ErrIndexChecksum means the index
// degraded mid-batch.
func (m *Mapper) MapReadsVerified(ctx context.Context, reads []Record, vo VerifyOptions) ([]VerifiedMapping, error) {
	vo = vo.withDefaults()
	sc := align.DefaultScoring()
	return core.MapEnds(ctx, reads, m.opts.SegmentLen, m.opts.Workers, m.session(ctx),
		func(sess *core.Session, e core.End) VerifiedMapping {
			hits := sess.MapSegmentTopK(e.Seq, vo.TopX)
			bestIdx, bestRev := -1, false
			var best align.Result
			for hi, h := range hits {
				res, rev := align.FastIdentityStranded(e.Seq, m.contigs[h.Subject].Seq, sc, 64)
				if bestIdx < 0 || res.Score > best.Score {
					best, bestRev, bestIdx = res, rev, hi
				}
			}
			if bestIdx < 0 || best.PercentIdentity() < vo.MinIdentity {
				return VerifiedMapping{Mapping: toMapping(e.Result(core.Hit{}, false), e.ID, m.contigName)}
			}
			return VerifiedMapping{
				Mapping:     toMapping(e.Result(hits[bestIdx], true), e.ID, m.contigName),
				Identity:    best.PercentIdentity(),
				CIGAR:       best.CIGAR(),
				TargetStart: best.BStart,
				TargetEnd:   best.BEnd,
				Reverse:     bestRev,
				Rescued:     bestIdx != 0,
			}
		})
}
