package mashmap

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/seq"
)

func randDNA(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = seq.Code2Base[rng.Intn(4)]
	}
	return s
}

func smallParams() Params {
	return Params{K: 8, W: 4, SegLen: 200, MinShared: 2}
}

func world(t *testing.T) (ref []byte, contigs []seq.Record) {
	t.Helper()
	rng := rand.New(rand.NewSource(55))
	ref = randDNA(rng, 20_000)
	for pos := 0; pos+1000 <= len(ref); pos += 1000 {
		contigs = append(contigs, seq.Record{ID: fmt.Sprintf("c%d", len(contigs)), Seq: ref[pos : pos+1000]})
	}
	return ref, contigs
}

func TestMapSegmentFindsOrigin(t *testing.T) {
	ref, contigs := world(t)
	m := NewMapper(contigs, smallParams(), 1)
	rng := rand.New(rand.NewSource(56))
	correct := 0
	const trials = 30
	for i := 0; i < trials; i++ {
		pos := rng.Intn(len(ref) - 200)
		hit, ok := m.MapSegment(ref[pos : pos+200])
		if !ok {
			continue
		}
		want := int32(pos / 1000)
		if hit.Subject == want || hit.Subject == want+1 {
			correct++
		}
	}
	if correct < trials-2 {
		t.Errorf("only %d/%d segments mapped to origin", correct, trials)
	}
}

func TestMapSegmentRejectsUnrelated(t *testing.T) {
	// Needs a realistic k: at k=8 the canonical k-mer space is so
	// small that random 200-mers genuinely share minimizers with any
	// index. k=16 collisions are vanishingly rare, so MinShared=2
	// keeps false hits out.
	_, contigs := world(t)
	p := Params{K: 16, W: 4, SegLen: 200, MinShared: 2}
	m := NewMapper(contigs, p, 1)
	rng := rand.New(rand.NewSource(57))
	falseHits := 0
	for i := 0; i < 20; i++ {
		if _, ok := m.MapSegment(randDNA(rng, 200)); ok {
			falseHits++
		}
	}
	if falseHits > 2 {
		t.Errorf("%d/20 unrelated segments mapped", falseHits)
	}
}

func TestMapSegmentStrandOblivious(t *testing.T) {
	ref, contigs := world(t)
	m := NewMapper(contigs, smallParams(), 1)
	seg := ref[3100:3300]
	h1, ok1 := m.MapSegment(seg)
	h2, ok2 := m.MapSegment(seq.ReverseComplement(seg))
	if !ok1 || !ok2 || h1.Subject != h2.Subject {
		t.Errorf("strand variance: %v,%v vs %v,%v", h1, ok1, h2, ok2)
	}
}

func TestMinSharedFilter(t *testing.T) {
	_, contigs := world(t)
	p := smallParams()
	p.MinShared = 1_000_000
	m := NewMapper(contigs, p, 1)
	if _, ok := m.MapSegment(contigs[0].Seq[:200]); ok {
		t.Error("absurd MinShared should reject everything")
	}
}

func TestEmptyAndShortSegments(t *testing.T) {
	_, contigs := world(t)
	m := NewMapper(contigs, smallParams(), 1)
	if _, ok := m.MapSegment(nil); ok {
		t.Error("nil segment should not map")
	}
	if _, ok := m.MapSegment([]byte("ACG")); ok {
		t.Error("sub-k segment should not map")
	}
}

func TestMapReadsShapeAndDeterminism(t *testing.T) {
	ref, contigs := world(t)
	m := NewMapper(contigs, smallParams(), 2)
	rng := rand.New(rand.NewSource(58))
	var reads []seq.Record
	for i := 0; i < 15; i++ {
		pos := rng.Intn(len(ref) - 900)
		reads = append(reads, seq.Record{ID: fmt.Sprintf("r%d", i), Seq: ref[pos : pos+900]})
	}
	r1 := m.MapReads(reads, 200, 1)
	r2 := m.MapReads(reads, 200, 4)
	if !reflect.DeepEqual(r1, r2) {
		t.Error("worker count changed results")
	}
	if len(r1) != 2*len(reads) {
		t.Fatalf("got %d results", len(r1))
	}
	for i, r := range r1 {
		if r.ReadIndex != int32(i/2) {
			t.Fatalf("result %d has read %d", i, r.ReadIndex)
		}
		if (i%2 == 0) != (r.Kind == core.Prefix) {
			t.Fatalf("result %d kind %v", i, r.Kind)
		}
	}
}

func TestWindowedLocalIntersection(t *testing.T) {
	// A contig sharing two far-apart clusters of minimizers with a
	// query must be scored by the best single window, not the total.
	rng := rand.New(rand.NewSource(59))
	block := randDNA(rng, 200)
	// Subject: block at 0 and a copy at 5000, padding in between.
	subject := append([]byte(nil), block...)
	subject = append(subject, randDNA(rng, 4800)...)
	subject = append(subject, block...)
	subject = append(subject, randDNA(rng, 500)...)
	// Another subject with one contiguous double block.
	subject2 := append(append([]byte(nil), block...), block...)
	contigs := []seq.Record{
		{ID: "split", Seq: subject},
		{ID: "contig", Seq: subject2},
	}
	p := Params{K: 8, W: 4, SegLen: 400, MinShared: 2}
	m := NewMapper(contigs, p, 1)
	query := append(append([]byte(nil), block...), block...)
	hit, ok := m.MapSegment(query)
	if !ok {
		t.Fatal("no hit")
	}
	if hit.Subject != 1 {
		t.Errorf("windowing failed: best hit %v (want subject 1 with the contiguous copy)", hit)
	}
}

func TestMapSegmentDetailedPosition(t *testing.T) {
	// One long subject; segments cut from known offsets must report a
	// window position near the cut.
	rng := rand.New(rand.NewSource(81))
	subject := randDNA(rng, 20_000)
	p := Params{K: 12, W: 4, SegLen: 400, MinShared: 2}
	m := NewMapper([]seq.Record{{ID: "c", Seq: subject}}, p, 1)
	for trial := 0; trial < 15; trial++ {
		pos := rng.Intn(len(subject) - 400)
		hit, d, ok := m.MapSegmentDetailed(subject[pos : pos+400])
		if !ok || hit.Subject != 0 {
			t.Fatalf("trial %d: no hit", trial)
		}
		if diff := int(d.Pos) - pos; diff < -450 || diff > 450 {
			t.Errorf("trial %d: window pos %d vs cut %d", trial, d.Pos, pos)
		}
		if d.Identity < 95 {
			t.Errorf("trial %d: exact segment estimated at %.1f%% identity", trial, d.Identity)
		}
		if d.QueryMinimizers <= 0 {
			t.Errorf("trial %d: no query minimizers recorded", trial)
		}
	}
}

func TestEstimateIdentityMonotone(t *testing.T) {
	const k = 16
	prev := -1.0
	for shared := 1; shared <= 100; shared += 9 {
		id := EstimateIdentity(shared, 100, k)
		if id < prev {
			t.Fatalf("identity not monotone in shared count at %d: %v < %v", shared, id, prev)
		}
		prev = id
	}
	if EstimateIdentity(100, 100, k) != 100 {
		t.Errorf("perfect containment should estimate 100%%")
	}
	if EstimateIdentity(0, 100, k) != 0 || EstimateIdentity(5, 0, k) != 0 {
		t.Error("degenerate inputs should estimate 0")
	}
	if EstimateIdentity(200, 100, k) != 100 {
		t.Error("j>1 must clamp")
	}
}

func TestEstimateIdentityTracksMutationRate(t *testing.T) {
	// Mutate a segment at a known rate; the Mash estimate against the
	// clean subject should land in the right neighborhood.
	rng := rand.New(rand.NewSource(83))
	subject := randDNA(rng, 30_000)
	segStart := 10_000
	segment := append([]byte(nil), subject[segStart:segStart+1000]...)
	for i := range segment {
		if rng.Float64() < 0.03 {
			segment[i] = seq.Code2Base[rng.Intn(4)]
		}
	}
	p := Params{K: 16, W: 5, SegLen: 1000, MinShared: 2}
	m := NewMapper([]seq.Record{{ID: "c", Seq: subject}}, p, 1)
	_, d, ok := m.MapSegmentDetailed(segment)
	if !ok {
		t.Fatal("mutated segment did not map")
	}
	if d.Identity < 90 || d.Identity > 99.5 {
		t.Errorf("3%% mutation estimated at %.2f%% identity", d.Identity)
	}
}

func TestIndexEntries(t *testing.T) {
	_, contigs := world(t)
	m := NewMapper(contigs, smallParams(), 1)
	if len(m.index) == 0 {
		t.Error("empty index")
	}
}
