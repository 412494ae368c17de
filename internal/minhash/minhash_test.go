package minhash

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/seq"
	"repro/internal/sketch"
)

func randDNA(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = seq.Code2Base[rng.Intn(4)]
	}
	return s
}

func smallParams() sketch.Params {
	return sketch.Params{K: 8, W: 4, T: 10, L: 200, Seed: 13}
}

func TestMapsShortContigs(t *testing.T) {
	// When contigs are about segment-sized, classical MinHash works:
	// the whole-sequence sketch and the overlap region coincide.
	rng := rand.New(rand.NewSource(61))
	ref := randDNA(rng, 10_000)
	var contigs []seq.Record
	for pos := 0; pos+250 <= len(ref); pos += 250 {
		contigs = append(contigs, seq.Record{ID: fmt.Sprintf("c%d", len(contigs)), Seq: ref[pos : pos+250]})
	}
	m, err := NewMapper(contigs, smallParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	sess := m.NewSession()
	correct := 0
	const trials = 25
	for i := 0; i < trials; i++ {
		pos := rng.Intn(len(ref) - 250)
		hit, ok := sess.MapSegment(ref[pos : pos+250])
		if !ok {
			continue
		}
		want := int32(pos / 250)
		if hit.Subject == want || hit.Subject == want+1 {
			correct++
		}
	}
	if correct < trials*7/10 {
		t.Errorf("only %d/%d segments mapped to origin", correct, trials)
	}
}

func TestDegradesOnLongContigs(t *testing.T) {
	// The paper's Fig. 6 argument: with contigs much longer than the
	// segment, whole-sequence minhashes usually fall outside the
	// overlap, so few trials hit. JEM's interval sketch must beat
	// classical MinHash on the same input at the same T.
	rng := rand.New(rand.NewSource(62))
	ref := randDNA(rng, 60_000)
	var contigs []seq.Record
	const contigLen = 10_000
	for pos := 0; pos+contigLen <= len(ref); pos += contigLen {
		contigs = append(contigs, seq.Record{ID: fmt.Sprintf("c%d", len(contigs)), Seq: ref[pos : pos+contigLen]})
	}
	p := sketch.Params{K: 12, W: 4, T: 5, L: 200, Seed: 14}

	mh, err := NewMapper(contigs, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	jem, err := core.NewMapper(p)
	if err != nil {
		t.Fatal(err)
	}
	jem.AddSubjects(contigs)
	jem.Seal()

	mhSess := mh.NewSession()
	jemSess := jem.NewSession()
	mhCorrect, jemCorrect := 0, 0
	const trials = 60
	for i := 0; i < trials; i++ {
		pos := rng.Intn(len(ref) - 200)
		want := int32(pos / contigLen)
		if h, ok := mhSess.MapSegment(ref[pos : pos+200]); ok && (h.Subject == want || h.Subject == want+1) {
			mhCorrect++
		}
		if h, ok := jemSess.MapSegment(ref[pos : pos+200]); ok && (h.Subject == want || h.Subject == want+1) {
			jemCorrect++
		}
	}
	if jemCorrect <= mhCorrect {
		t.Errorf("JEM (%d/%d) should beat classical MinHash (%d/%d) on long contigs at low T",
			jemCorrect, trials, mhCorrect, trials)
	}
	if jemCorrect < trials*8/10 {
		t.Errorf("JEM recovered only %d/%d", jemCorrect, trials)
	}
}

func TestSessionIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	ref := randDNA(rng, 5_000)
	contigs := []seq.Record{{ID: "c", Seq: ref}}
	m, err := NewMapper(contigs, smallParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	segA := ref[100:300]
	segB := ref[2000:2200]
	fresh := m.NewSession()
	wantB, wantOK := fresh.MapSegment(segB)
	reused := m.NewSession()
	reused.MapSegment(segA)
	gotB, gotOK := reused.MapSegment(segB)
	if gotOK != wantOK || gotB != wantB {
		t.Errorf("counter leak: %v,%v vs %v,%v", gotB, gotOK, wantB, wantOK)
	}
}

func TestMapReadsShape(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	ref := randDNA(rng, 10_000)
	contigs := []seq.Record{{ID: "c", Seq: ref[:5000]}, {ID: "d", Seq: ref[5000:]}}
	m, err := NewMapper(contigs, smallParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var reads []seq.Record
	for i := 0; i < 10; i++ {
		pos := rng.Intn(len(ref) - 800)
		reads = append(reads, seq.Record{ID: fmt.Sprintf("r%d", i), Seq: ref[pos : pos+800]})
	}
	r1 := m.MapReads(reads, 200, 1)
	r2 := m.MapReads(reads, 200, 3)
	if !reflect.DeepEqual(r1, r2) {
		t.Error("worker count changed results")
	}
	if len(r1) != 2*len(reads) {
		t.Fatalf("got %d results", len(r1))
	}
}

func TestInvalidParams(t *testing.T) {
	if _, err := NewMapper(nil, sketch.Params{K: 0}, 1); err == nil {
		t.Error("invalid params should fail")
	}
}

func TestEmptyContigSet(t *testing.T) {
	m, err := NewMapper(nil, smallParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	sess := m.NewSession()
	rng := rand.New(rand.NewSource(65))
	if _, ok := sess.MapSegment(randDNA(rng, 200)); ok {
		t.Error("no contigs: should not map")
	}
}
