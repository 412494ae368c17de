package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/minimizer"
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
	return sketch.Params{K: 8, W: 4, T: 8, L: 200, Seed: 3}
}

// makeWorld builds a toy reference, carves contigs from it, and
// samples error-free reads so every segment has an unambiguous best
// contig.
func makeWorld(t *testing.T, rng *rand.Rand, refLen, contigLen, nReads int) (ref []byte, contigs []seq.Record, reads []seq.Record, origin []int) {
	t.Helper()
	ref = randDNA(rng, refLen)
	for pos := 0; pos+contigLen <= refLen; pos += contigLen {
		contigs = append(contigs, seq.Record{
			ID:  fmt.Sprintf("c%d", len(contigs)),
			Seq: ref[pos : pos+contigLen],
		})
	}
	p := smallParams()
	readLen := 3 * p.L
	for i := 0; i < nReads; i++ {
		pos := rng.Intn(refLen - readLen)
		reads = append(reads, seq.Record{
			ID:  fmt.Sprintf("r%d", i),
			Seq: ref[pos : pos+readLen],
		})
		origin = append(origin, pos)
	}
	return ref, contigs, reads, origin
}

func TestEndSegments(t *testing.T) {
	read := []byte("ACGTACGTACGT") // 12 bases
	segs, kinds := EndSegments(read, 5)
	if len(segs) != 2 || len(kinds) != 2 {
		t.Fatalf("got %d segments", len(segs))
	}
	if string(segs[0]) != "ACGTA" || kinds[0] != Prefix {
		t.Errorf("prefix = %q %v", segs[0], kinds[0])
	}
	if string(segs[1]) != "TACGT" || kinds[1] != Suffix {
		t.Errorf("suffix = %q %v", segs[1], kinds[1])
	}
	// Short read: single segment.
	segs, kinds = EndSegments(read, 12)
	if len(segs) != 1 || kinds[0] != Prefix || string(segs[0]) != string(read) {
		t.Errorf("short read: %q %v", segs[0], kinds)
	}
	segs, _ = EndSegments(read, 100)
	if len(segs) != 1 {
		t.Errorf("l > len: %d segments", len(segs))
	}
}

func TestMapSegmentFindsOriginContig(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	_, contigs, reads, origin := makeWorld(t, rng, 20_000, 1000, 30)
	m, err := NewMapper(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	m.AddSubjectsParallel(contigs, 1)
	m.Seal()
	sess := m.NewSession()
	correct := 0
	for i, r := range reads {
		hit, ok := sess.MapSegment(r.Seq[:smallParams().L])
		if !ok {
			continue
		}
		wantContig := int32(origin[i] / 1000) // prefix starts at origin
		// The segment may straddle two contigs; accept either side.
		if hit.Subject == wantContig || hit.Subject == wantContig+1 {
			correct++
		}
	}
	if correct < 28 {
		t.Errorf("only %d/30 segments mapped to their origin contig", correct)
	}
}

func TestMapSegmentNoSketch(t *testing.T) {
	m, _ := NewMapper(smallParams())
	m.AddSubjectsParallel([]seq.Record{{ID: "c", Seq: []byte("ACGTACGTACGTACGTACGTACGTACGT")}}, 1)
	m.Seal()
	sess := m.NewSession()
	if _, ok := sess.MapSegment([]byte("ACG")); ok {
		t.Error("too-short segment should not map")
	}
	if _, ok := sess.MapSegment(nil); ok {
		t.Error("nil segment should not map")
	}
}

func TestMapSegmentNoSubjects(t *testing.T) {
	m, _ := NewMapper(smallParams())
	m.Seal()
	sess := m.NewSession()
	rng := rand.New(rand.NewSource(1))
	if _, ok := sess.MapSegment(randDNA(rng, 200)); ok {
		t.Error("no subjects: should not map")
	}
}

func TestMapSegmentTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	_, contigs, reads, _ := makeWorld(t, rng, 20_000, 500, 10)
	p := smallParams()
	m, _ := NewMapper(p)
	m.AddSubjectsParallel(contigs, 1)
	m.Seal()
	sess := m.NewSession()
	for _, r := range reads {
		seg := r.Seq[:p.L]
		hits := sess.MapSegmentTopK(seg, 3)
		if len(hits) == 0 {
			continue
		}
		if len(hits) > 3 {
			t.Fatalf("topK returned %d hits", len(hits))
		}
		for i := 1; i < len(hits); i++ {
			if hits[i].Count > hits[i-1].Count {
				t.Fatalf("topK not sorted: %v", hits)
			}
			if hits[i].Count == hits[i-1].Count && hits[i].Subject < hits[i-1].Subject {
				t.Fatalf("topK tie order wrong: %v", hits)
			}
		}
		best, ok := sess.MapSegment(seg)
		if !ok || hits[0] != best {
			t.Fatalf("topK[0] %v != best %v", hits[0], best)
		}
	}
	if got := sess.MapSegmentTopK(reads[0].Seq[:p.L], 0); got != nil {
		t.Error("k=0 should return nil")
	}
}

func TestSegmentKindString(t *testing.T) {
	if Prefix.String() != "prefix" || Suffix.String() != "suffix" {
		t.Error("SegmentKind strings wrong")
	}
}

func TestResultString(t *testing.T) {
	r := Result{ReadIndex: 3, Kind: Suffix, Subject: 7, Count: 12}
	if r.String() == "" || !r.Mapped() {
		t.Error("result rendering broken")
	}
	if (Result{Subject: -1}).Mapped() {
		t.Error("subject -1 should be unmapped")
	}
}

func TestMapSegmentPositionalEstimatesLocation(t *testing.T) {
	// One long contig; segments cut from known offsets must come back
	// with a target window containing (roughly) the cut position.
	rng := rand.New(rand.NewSource(41))
	contig := randDNA(rng, 20_000)
	// Realistic k: at k=8 the same word recurs within one contig and
	// pollutes the anchor median; k=12 collisions are rare.
	p := sketch.Params{K: 12, W: 4, T: 8, L: 200, Seed: 3}
	m, _ := NewMapper(p)
	m.AddSubjectsParallel([]seq.Record{{ID: "c", Seq: contig}}, 1)
	m.Seal()
	sess := m.NewSession()
	for trial := 0; trial < 20; trial++ {
		pos := rng.Intn(len(contig) - p.L)
		ph, ok := sess.MapSegmentPositional(contig[pos : pos+p.L])
		if !ok || ph.Subject != 0 {
			t.Fatalf("trial %d: hit %+v ok=%v", trial, ph, ok)
		}
		if ph.TargetStart < 0 {
			t.Fatalf("trial %d: no positional estimate", trial)
		}
		// The median anchor should land within ~ℓ of the true cut.
		diff := int(ph.TargetStart) - pos
		if diff < -p.L || diff > p.L {
			t.Errorf("trial %d: estimate %d vs true %d (diff %d)", trial, ph.TargetStart, pos, diff)
		}
		if ph.TargetEnd <= ph.TargetStart || ph.TargetEnd > int32(len(contig)) {
			t.Errorf("trial %d: bad window [%d,%d)", trial, ph.TargetStart, ph.TargetEnd)
		}
	}
}

func TestMapReadTiledFindsContainedContig(t *testing.T) {
	// A small contig embedded in the middle of a long read is missed
	// by end-segment mapping but found by tiled mapping — the
	// extension scenario the paper describes in §III-B.1.
	rng := rand.New(rand.NewSource(47))
	p := sketch.Params{K: 12, W: 4, T: 8, L: 300, Seed: 3}
	contained := randDNA(rng, 400)
	flankA := randDNA(rng, 2000)
	flankB := randDNA(rng, 2000)
	read := append(append(append([]byte(nil), flankA...), contained...), flankB...)

	m, _ := NewMapper(p)
	m.AddSubjectsParallel([]seq.Record{
		{ID: "left", Seq: flankA},
		{ID: "mid", Seq: contained},
		{ID: "right", Seq: flankB},
	}, 1)
	m.Seal()
	sess := m.NewSession()

	// End segments see only the flanks.
	segs, _ := EndSegments(read, p.L)
	for _, seg := range segs {
		if hit, ok := sess.MapSegment(seg); ok && hit.Subject == 1 {
			t.Fatal("end segment unexpectedly hit the contained contig")
		}
	}
	// Tiled mapping must surface the contained contig.
	contained2 := sess.ContainedSubjects(read, p.L)
	found := false
	for _, s := range contained2 {
		if s == 1 {
			found = true
		}
	}
	if !found {
		tiles := sess.MapReadTiled(read, p.L, 0)
		t.Fatalf("contained contig not found; tiles: %+v", tiles)
	}
}

func TestMapReadTiledStrideAndBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	p := smallParams()
	contig := randDNA(rng, 3000)
	m, _ := NewMapper(p)
	m.AddSubjectsParallel([]seq.Record{{ID: "c", Seq: contig}}, 1)
	m.Seal()
	sess := m.NewSession()
	tiles := sess.MapReadTiled(contig, p.L, p.L/2)
	if len(tiles) == 0 {
		t.Fatal("no tiles mapped")
	}
	for i, th := range tiles {
		if th.Offset < 0 || int(th.Offset+th.Length) > len(contig) {
			t.Fatalf("tile %d out of bounds: %+v", i, th)
		}
		if i > 0 && tiles[i].Offset <= tiles[i-1].Offset {
			t.Fatalf("tiles not advancing: %+v", tiles)
		}
	}
	if got := sess.MapReadTiled(nil, p.L, 0); got != nil {
		t.Error("nil read should map no tiles")
	}
	if got := sess.MapReadTiled(contig, 0, 0); got != nil {
		t.Error("l=0 should map no tiles")
	}
}

func TestBestHitAgreesWithBruteForceJaccard(t *testing.T) {
	// Differential test of the paper's premise: JEM's trial-count
	// best hit should usually coincide with the contig maximizing the
	// exact minimizer Jaccard against the segment. Agreement is
	// statistical (the estimator is randomized), so we demand a high
	// rate, not unanimity.
	rng := rand.New(rand.NewSource(59))
	p := sketch.Params{K: 12, W: 6, T: 24, L: 400, Seed: 2}
	mp := minimizer.Params{K: p.K, W: p.W}
	ref := randDNA(rng, 40_000)
	var contigs []seq.Record
	const contigLen = 2000
	for pos := 0; pos+contigLen <= len(ref); pos += contigLen {
		contigs = append(contigs, seq.Record{
			ID:  fmt.Sprintf("c%d", len(contigs)),
			Seq: ref[pos : pos+contigLen],
		})
	}
	m, _ := NewMapper(p)
	m.AddSubjectsParallel(contigs, 1)
	m.Seal()
	sess := m.NewSession()

	agree, total := 0, 0
	for trial := 0; trial < 40; trial++ {
		pos := rng.Intn(len(ref) - p.L)
		seg := append([]byte(nil), ref[pos:pos+p.L]...)
		for i := range seg { // light noise
			if rng.Float64() < 0.01 {
				seg[i] = seq.Code2Base[rng.Intn(4)]
			}
		}
		hit, ok := sess.MapSegment(seg)
		if !ok {
			continue
		}
		// Brute force argmax of minimizer Jaccard.
		bestJ, bestC := -1.0, int32(-1)
		for ci := range contigs {
			j := minimizer.Jaccard(seg, contigs[ci].Seq, mp)
			if j > bestJ {
				bestJ, bestC = j, int32(ci)
			}
		}
		total++
		if hit.Subject == bestC {
			agree++
		}
	}
	if total < 30 {
		t.Fatalf("only %d segments mapped", total)
	}
	if agree*10 < total*8 {
		t.Errorf("JEM best hit agreed with brute-force Jaccard on only %d/%d segments", agree, total)
	}
}

// TestSealedMapperMatchesMutable pins what sealing must not change: a
// sealed mapper holds exactly the entries of a plain map-of-lists table
// filled subject by subject — the mutable table a mapper used to serve
// from before sealing, which now exists only here. Its mapping
// decisions are internal/oracle's backend matrix's to check.
func TestSealedMapperMatchesMutable(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	_, contigs, _, _ := makeWorld(t, rng, 24_000, 600, 15)
	p := smallParams()
	sealed, err := NewMapper(p)
	if err != nil {
		t.Fatal(err)
	}
	sealed.AddSubjectsParallel(contigs, 1)
	if sealed.Sealed() || sealed.Entries() != 0 || sealed.Shards() != 0 {
		t.Fatal("a mapper is sealed, or claims a table, before Seal")
	}
	sealed.Seal()
	sealed.Seal() // idempotent
	if !sealed.Sealed() || sealed.Frozen() == nil || sealed.Shards() != 1 {
		t.Fatal("Seal did not leave a sealed one-shard mapper")
	}

	sk := sealed.Sketcher()
	mutable := make([]map[sketch.Word][]int32, p.T) // trial → word → subjects
	wantEntries := 0
	for ti := range mutable {
		mutable[ti] = make(map[sketch.Word][]int32)
	}
	for subj, c := range contigs {
		for ti, words := range sk.SubjectSketchTuples(minimizer.Extract(c.Seq, minimizer.Params{K: p.K, W: p.W})) {
			for _, w := range words {
				if l := mutable[ti][w]; len(l) == 0 || l[len(l)-1] != int32(subj) {
					mutable[ti][w] = append(l, int32(subj))
					wantEntries++
				}
			}
		}
	}
	if sealed.Entries() != wantEntries {
		t.Fatalf("sealed table holds %d entries, the mutable one %d", sealed.Entries(), wantEntries)
	}
}

// TestSealedMapperPanicsOnMutation: every subject-growing entry point
// must refuse to run on a sealed mapper rather than desync the frozen
// table from the subject metadata.
func TestSealedMapperPanicsOnMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	contigs := []seq.Record{{ID: "c0", Seq: randDNA(rng, 600)}}
	p := smallParams()
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s on a sealed mapper did not panic", name)
			}
		}()
		f()
	}
	m, _ := NewMapper(p)
	m.AddSubjectsParallel(contigs, 1)
	m.Seal()
	mustPanic("AddSubjects", func() { m.AddSubjectsParallel(contigs, 1) })
	mustPanic("AddSubjectsParallel", func() { m.AddSubjectsParallel(contigs, 2) })
}

// TestMutationAfterSessionPanics: sessions size their counter arrays to
// the subject set, so it must never grow under one. The guard is the
// seal: a session cannot be had before it, a subject cannot be added
// after it.
func TestMutationAfterSessionPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	contigs := []seq.Record{{ID: "c0", Seq: randDNA(rng, 600)}}
	m, _ := NewMapper(smallParams())
	m.AddSubjectsParallel(contigs, 1)
	mustPanicWith := func(want string, f func()) {
		t.Helper()
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, want) {
				t.Fatalf("panic %q does not name %q", msg, want)
			}
		}()
		f()
	}
	mustPanicWith("NewSession on an unsealed mapper", func() { m.NewSession() })
	mustPanicWith("NewSession on an unsealed mapper", func() { m.MapReads(context.Background(), nil, 100, 1) })
	m.Seal()
	_ = m.NewSession()
	mustPanicWith("AddSubjectsParallel on a sealed mapper", func() { m.AddSubjectsParallel(contigs, 1) })
}

// TestSessionZeroAlloc guards the session's query scratch: once warm,
// mapping a full-length end segment allocates nothing, on the plain and
// the positional path, for a hit and a miss, on one shard and on eight.
func TestSessionZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	p := sketch.Defaults()
	ref := randDNA(rng, 200*3000)
	var contigs []seq.Record
	for i := 0; i*3000 < len(ref); i++ {
		contigs = append(contigs, seq.Record{ID: fmt.Sprintf("c%d", i), Seq: ref[i*3000 : (i+1)*3000]})
	}
	pos := rng.Intn(len(ref) - p.L)
	segs := map[string][]byte{"hit": ref[pos : pos+p.L], "miss": randDNA(rng, p.L)}
	for _, shards := range []int{1, 8} {
		m, err := NewMapper(p)
		if err != nil {
			t.Fatal(err)
		}
		m.AddSubjectsParallel(contigs, 1)
		m.SealSharded(shards, 1)
		sess := m.NewSession()
		if _, ok := sess.MapSegmentPositional(segs["hit"]); !ok {
			t.Fatalf("P=%d: the hit segment did not map", shards)
		}
		for name, seg := range segs {
			for path, run := range map[string]func(){
				"MapSegment":           func() { sess.MapSegment(seg) },
				"MapSegmentPositional": func() { sess.MapSegmentPositional(seg) },
			} {
				run() // warm-up: grow the session's buffers
				if n := testing.AllocsPerRun(20, run); n != 0 {
					t.Errorf("P=%d %s %s: %v allocs per call, want 0", shards, path, name, n)
				}
			}
		}
	}
}
