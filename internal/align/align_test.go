package align

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/seq"
)

func randDNA(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = seq.Code2Base[rng.Intn(4)]
	}
	return s
}

func TestLocalFindsEmbeddedMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	needle := randDNA(rng, 50)
	hay := append(append(randDNA(rng, 200), needle...), randDNA(rng, 200)...)
	r := Local(needle, hay, DefaultScoring())
	if r.Matches < 48 {
		t.Errorf("local alignment missed the embedded copy: %+v", r)
	}
	if r.BStart < 150 || r.BEnd > 300 {
		t.Errorf("aligned span off target: %+v", r)
	}
	if r.Identity() < 0.95 {
		t.Errorf("identity %v", r.Identity())
	}
}

func TestLocalNoSimilarity(t *testing.T) {
	a := []byte("AAAAAAAAAA")
	b := []byte("GGGGGGGGGG")
	r := Local(a, b, DefaultScoring())
	if r.Score != 0 || r.Matches != 0 {
		t.Errorf("dissimilar local: %+v", r)
	}
	if r.Identity() != 0 {
		t.Errorf("identity %v", r.Identity())
	}
}

func TestLocalEmpty(t *testing.T) {
	r := Local(nil, []byte("ACGT"), DefaultScoring())
	if r.Score != 0 || r.AlignedColumns() != 0 {
		t.Errorf("empty local: %+v", r)
	}
}

func TestIdentityBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randDNA(rng, 20+rng.Intn(100))
		b := randDNA(rng, 20+rng.Intn(100))
		r := Local(a, b, DefaultScoring())
		id := r.Identity()
		return id >= 0 && id <= 1 && r.PercentIdentity() >= 0 && r.PercentIdentity() <= 100
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSegmentIdentityMutationTracksRate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := randDNA(rng, 1000)
	mutated := append([]byte(nil), base...)
	for i := range mutated {
		if rng.Float64() < 0.05 {
			mutated[i] = seq.Code2Base[rng.Intn(4)]
		}
	}
	r := SegmentIdentity(mutated, base, DefaultScoring())
	id := r.PercentIdentity()
	if id < 90 || id > 99.5 {
		t.Errorf("5%% mutation should land ~93-97%% identity, got %.2f", id)
	}
}

func TestSegmentIdentityCropsLongSubject(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	segment := randDNA(rng, 300)
	subject := append(append(randDNA(rng, 5000), segment...), randDNA(rng, 5000)...)
	r := SegmentIdentity(segment, subject, DefaultScoring())
	if r.Identity() < 0.95 {
		t.Errorf("identity %.3f after cropping", r.Identity())
	}
	if r.BStart < 4500 || r.BEnd > 5900 {
		t.Errorf("span [%d,%d) not near the embedded copy", r.BStart, r.BEnd)
	}
}

func TestBestStrandIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	segment := randDNA(rng, 400)
	subject := append(append(randDNA(rng, 300), seq.ReverseComplement(segment)...), randDNA(rng, 300)...)
	fwdOnly := SegmentIdentity(segment, subject, DefaultScoring())
	both := BestStrandIdentity(segment, subject, DefaultScoring())
	if both.Identity() < 0.95 {
		t.Errorf("reverse-strand pair not recovered: %.3f", both.Identity())
	}
	if both.Score < fwdOnly.Score {
		t.Errorf("BestStrand returned the worse orientation")
	}
}

func TestFitIdenticalEmbedded(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	segment := randDNA(rng, 500)
	window := append(append(randDNA(rng, 80), segment...), randDNA(rng, 80)...)
	r := Fit(segment, window, DefaultScoring(), 100)
	if r.Matches != 500 || r.Mismatches != 0 || r.Gaps != 0 {
		t.Errorf("fit of exact copy: %+v", r)
	}
	if r.BStart != 80 || r.BEnd != 580 {
		t.Errorf("fit span [%d,%d) want [80,580)", r.BStart, r.BEnd)
	}
	if r.Identity() != 1 {
		t.Errorf("identity %v", r.Identity())
	}
}

func TestFitToleratesIndels(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	base := randDNA(rng, 800)
	// Mutate: a couple of deletions and substitutions.
	seg := append([]byte(nil), base[:300]...)
	seg = append(seg, base[305:600]...) // 5-base deletion
	seg = append(seg, base[600:]...)
	seg[100] = seq.Code2Base[(int(seg[100])+1)%4]
	window := append(append(randDNA(rng, 60), base...), randDNA(rng, 60)...)
	r := Fit(seg, window, DefaultScoring(), 64)
	if r.Identity() < 0.97 {
		t.Errorf("fit identity %.3f for near-identical pair", r.Identity())
	}
}

func TestFitEdgeCases(t *testing.T) {
	sc := DefaultScoring()
	if r := Fit(nil, []byte("ACGT"), sc, 8); r.AlignedColumns() != 0 {
		t.Errorf("empty a: %+v", r)
	}
	if r := Fit([]byte("ACGT"), nil, sc, 8); r.Gaps != 4 {
		t.Errorf("empty b: %+v", r)
	}
	// a longer than b: still aligns with gaps.
	r := Fit([]byte("ACGTACGTACGT"), []byte("ACGT"), sc, 4)
	if r.Matches+r.Mismatches+r.Gaps == 0 {
		t.Errorf("long-a fit: %+v", r)
	}
}

func TestFastIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	subject := randDNA(rng, 20_000)
	segment := append([]byte(nil), subject[7000:8000]...)
	for i := range segment {
		if rng.Float64() < 0.01 {
			segment[i] = seq.Code2Base[rng.Intn(4)]
		}
	}
	r, rev := FastIdentityStranded(segment, subject, DefaultScoring(), 64)
	if r.PercentIdentity() < 97 || rev {
		t.Errorf("1%% mutated segment scored %.2f%%", r.PercentIdentity())
	}
	if r.BStart < 6900 || r.BEnd > 8100 {
		t.Errorf("fast identity span [%d,%d) off target", r.BStart, r.BEnd)
	}
	// Reverse-strand pair.
	rc, rev := FastIdentityStranded(seq.ReverseComplement(segment), subject, DefaultScoring(), 64)
	if rc.PercentIdentity() < 97 || !rev {
		t.Errorf("reverse pair scored %.2f%%", rc.PercentIdentity())
	}
	// Unrelated segment: no shared seed → zero.
	junk := randDNA(rng, 1000)
	if r, _ := FastIdentityStranded(junk, subject, DefaultScoring(), 64); r.PercentIdentity() != 0 {
		t.Errorf("junk scored %.2f%%", r.PercentIdentity())
	}
}

func TestCIGARConsistency(t *testing.T) {
	// Property: CIGAR op lengths must account for both sequences'
	// aligned spans, and op counts must match the column tallies.
	check := func(t *testing.T, r Result, aSpan, bSpan int) {
		t.Helper()
		var m, ins, del int
		for _, op := range r.Ops {
			switch op.Op {
			case 'M':
				m += op.Len
			case 'I':
				ins += op.Len
			case 'D':
				del += op.Len
			default:
				t.Fatalf("unknown op %c", op.Op)
			}
		}
		if m != r.Matches+r.Mismatches {
			t.Errorf("CIGAR M=%d vs matches+mismatches=%d", m, r.Matches+r.Mismatches)
		}
		if ins+del != r.Gaps {
			t.Errorf("CIGAR I+D=%d vs gaps=%d", ins+del, r.Gaps)
		}
		if m+ins != aSpan {
			t.Errorf("CIGAR consumes %d of a, span is %d", m+ins, aSpan)
		}
		if m+del != bSpan {
			t.Errorf("CIGAR consumes %d of b, span is %d", m+del, bSpan)
		}
		// Adjacent ops must be merged.
		for i := 1; i < len(r.Ops); i++ {
			if r.Ops[i].Op == r.Ops[i-1].Op {
				t.Errorf("unmerged CIGAR runs: %s", r.CIGAR())
			}
		}
	}
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		a := randDNA(rng, 50+rng.Intn(200))
		b := randDNA(rng, 50+rng.Intn(200))
		rl := Local(a, b, DefaultScoring())
		check(t, rl, rl.AEnd-rl.AStart, rl.BEnd-rl.BStart)
		rf := Fit(a, b, DefaultScoring(), 32)
		check(t, rf, len(a), rf.BEnd-rf.BStart)
	}
}

func TestCIGARKnownCases(t *testing.T) {
	sc := DefaultScoring()
	r := Fit([]byte("ACGT"), []byte("ACGT"), sc, 4)
	if r.CIGAR() != "4M" {
		t.Errorf("identity CIGAR = %q", r.CIGAR())
	}
	r = Fit([]byte("ACGTACGT"), []byte("ACGACGT"), sc, 4)
	if got := r.CIGAR(); got != "3M1I4M" && got != "4M1I3M" {
		t.Errorf("deletion CIGAR = %q", got)
	}
	if (Result{}).CIGAR() != "" {
		t.Error("empty result should have empty CIGAR")
	}
}

func TestResultString(t *testing.T) {
	r := Result{Score: 5, Matches: 5, AEnd: 5, BEnd: 5}
	if r.String() == "" {
		t.Error("empty render")
	}
}
