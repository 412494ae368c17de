package seedchain

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

func world(t *testing.T) (ref []byte, contigs []seq.Record) {
	t.Helper()
	rng := rand.New(rand.NewSource(91))
	ref = randDNA(rng, 30_000)
	for pos := 0; pos+1500 <= len(ref); pos += 1500 {
		contigs = append(contigs, seq.Record{ID: fmt.Sprintf("c%d", len(contigs)), Seq: ref[pos : pos+1500]})
	}
	return ref, contigs
}

func TestMapSegmentFindsOrigin(t *testing.T) {
	ref, contigs := world(t)
	m := NewMapper(contigs, Defaults(), 1)
	rng := rand.New(rand.NewSource(92))
	correct := 0
	const trials = 30
	for i := 0; i < trials; i++ {
		pos := rng.Intn(len(ref) - 600)
		chain, ok := m.MapSegment(ref[pos : pos+600])
		if !ok {
			continue
		}
		want := int32(pos / 1500)
		if chain.Subject == want || chain.Subject == want+1 {
			correct++
		}
	}
	if correct < trials-2 {
		t.Errorf("only %d/%d segments chained to origin", correct, trials)
	}
}

func TestChainPositionsAndStrand(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	subject := randDNA(rng, 20_000)
	m := NewMapper([]seq.Record{{ID: "s", Seq: subject}}, Defaults(), 1)
	for trial := 0; trial < 20; trial++ {
		pos := rng.Intn(len(subject) - 800)
		seg := subject[pos : pos+800]
		chain, ok := m.MapSegment(seg)
		if !ok {
			t.Fatalf("trial %d: no chain", trial)
		}
		if chain.Reverse {
			t.Fatalf("trial %d: forward segment chained as reverse", trial)
		}
		if int(chain.TStart) < pos-50 || int(chain.TEnd) > pos+850 {
			t.Fatalf("trial %d: span [%d,%d) vs true [%d,%d)", trial, chain.TStart, chain.TEnd, pos, pos+800)
		}
		// Reverse complement must chain as reverse at the same locus.
		rcChain, ok := m.MapSegment(seq.ReverseComplement(seg))
		if !ok || !rcChain.Reverse {
			t.Fatalf("trial %d: revcomp chain = %+v ok=%v", trial, rcChain, ok)
		}
		if abs32(rcChain.TStart-chain.TStart) > 100 {
			t.Fatalf("trial %d: revcomp span start %d vs %d", trial, rcChain.TStart, chain.TStart)
		}
	}
}

func abs32(x int32) int32 {
	if x < 0 {
		return -x
	}
	return x
}

func TestMapSegmentToleratesIndels(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	subject := randDNA(rng, 10_000)
	m := NewMapper([]seq.Record{{ID: "s", Seq: subject}}, Defaults(), 1)
	// Segment with small indels relative to the subject.
	seg := append([]byte(nil), subject[2000:2300]...)
	seg = append(seg, subject[2310:2700]...) // 10-base deletion
	seg = append(seg, randDNA(rng, 5)...)    // small insertion
	seg = append(seg, subject[2700:3000]...)
	chain, ok := m.MapSegment(seg)
	if !ok {
		t.Fatal("indel segment did not chain")
	}
	if chain.TStart > 2100 || chain.TEnd < 2900 {
		t.Errorf("chain span [%d,%d) misses the locus", chain.TStart, chain.TEnd)
	}
}

func TestMapSegmentRejectsUnrelated(t *testing.T) {
	_, contigs := world(t)
	m := NewMapper(contigs, Defaults(), 1)
	rng := rand.New(rand.NewSource(95))
	falseHits := 0
	for i := 0; i < 20; i++ {
		if _, ok := m.MapSegment(randDNA(rng, 600)); ok {
			falseHits++
		}
	}
	if falseHits > 1 {
		t.Errorf("%d/20 unrelated segments chained", falseHits)
	}
}

func TestRepeatMasking(t *testing.T) {
	// A seed occurring everywhere must be dropped by MaxOccurrence,
	// not chained into a false hit.
	rng := rand.New(rand.NewSource(96))
	unit := randDNA(rng, 40)
	var repetitive []byte
	for i := 0; i < 200; i++ {
		repetitive = append(repetitive, unit...)
	}
	contigs := []seq.Record{
		{ID: "repeat", Seq: repetitive},
		{ID: "normal", Seq: randDNA(rng, 5000)},
	}
	p := Defaults()
	p.MaxOccurrence = 8
	m := NewMapper(contigs, p, 1)
	seg := contigs[1].Seq[1000:1600]
	chain, ok := m.MapSegment(seg)
	if !ok || chain.Subject != 1 {
		t.Errorf("chain = %+v ok=%v (want subject 1)", chain, ok)
	}
}

func TestMapReadsShapeAndDeterminism(t *testing.T) {
	ref, contigs := world(t)
	m := NewMapper(contigs, Defaults(), 2)
	rng := rand.New(rand.NewSource(97))
	var reads []seq.Record
	for i := 0; i < 12; i++ {
		pos := rng.Intn(len(ref) - 2000)
		reads = append(reads, seq.Record{ID: fmt.Sprintf("r%d", i), Seq: ref[pos : pos+2000]})
	}
	r1 := m.MapReads(reads, 600, 1)
	r2 := m.MapReads(reads, 600, 4)
	if !reflect.DeepEqual(r1, r2) {
		t.Error("worker count changed results")
	}
	if len(r1) != 2*len(reads) {
		t.Fatalf("got %d results", len(r1))
	}
	for i, r := range r1 {
		if r.ReadIndex != int32(i/2) {
			t.Fatalf("result order broken at %d: %+v", i, r)
		}
		if (i%2 == 0) != (r.Kind == core.Prefix) {
			t.Fatalf("kind order broken at %d", i)
		}
	}
}

func TestEmptyInputs(t *testing.T) {
	m := NewMapper(nil, Defaults(), 1)
	if _, ok := m.MapSegment([]byte("ACGTACGTACGTACGTACGT")); ok {
		t.Error("empty index should not map")
	}
	_, contigs := world(t)
	m = NewMapper(contigs, Defaults(), 1)
	if _, ok := m.MapSegment(nil); ok {
		t.Error("nil segment should not map")
	}
	if len(m.index) == 0 {
		t.Error("index is empty")
	}
}

func TestMinChainFilter(t *testing.T) {
	_, contigs := world(t)
	p := Defaults()
	p.MinChain = 1_000
	m := NewMapper(contigs, p, 1)
	if _, ok := m.MapSegment(contigs[0].Seq[:600]); ok {
		t.Error("absurd MinChain should reject everything")
	}
}
