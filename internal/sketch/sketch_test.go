package sketch

import (
	"bytes"
	"encoding/binary"
	"math/big"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/kmer"
	"repro/internal/minimizer"
	"repro/internal/seq"
)

func randDNA(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = seq.Code2Base[rng.Intn(4)]
	}
	return s
}

func TestMulmodMatchesBigInt(t *testing.T) {
	f := func(a, b uint64, pi uint8) bool {
		m := primes61[int(pi)%len(primes61)]
		a %= m
		b &= 1<<62 - 1
		want := new(big.Int).Mul(big.NewInt(0).SetUint64(a), big.NewInt(0).SetUint64(b))
		want.Mod(want, big.NewInt(0).SetUint64(m))
		return mulmod(a, b, m) == want.Uint64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestHashFamilyDeterministicPerSeed(t *testing.T) {
	h1 := NewHashFamily(16, 42)
	h2 := NewHashFamily(16, 42)
	h3 := NewHashFamily(16, 43)
	if !reflect.DeepEqual(h1, h2) {
		t.Error("same seed produced different families")
	}
	if reflect.DeepEqual(h1, h3) {
		t.Error("different seeds produced identical families")
	}
	for tr := 0; tr < len(h1.A); tr++ {
		if h1.Hash(tr, 12345) != h2.Hash(tr, 12345) {
			t.Fatalf("trial %d: hash mismatch across identical families", tr)
		}
	}
}

func TestHashBounds(t *testing.T) {
	hf := NewHashFamily(8, 7)
	f := func(x uint64) bool {
		w := kmer.Word(x & (1<<62 - 1))
		for tr := 0; tr < len(hf.A); tr++ {
			if hf.Hash(tr, w) >= hf.P[tr] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewHashFamilyPanicsOnZeroT(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewHashFamily(0, 1)
}

func TestParamsValidate(t *testing.T) {
	if err := Defaults().Validate(); err != nil {
		t.Errorf("defaults invalid: %v", err)
	}
	bad := []Params{
		{K: 0, W: 100, T: 30, L: 1000},
		{K: 16, W: 0, T: 30, L: 1000},
		{K: 16, W: 100, T: 0, L: 1000},
		{K: 16, W: 100, T: 30, L: 8},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("params %+v should be invalid", p)
		}
	}
}

func smallParams() Params {
	return Params{K: 8, W: 4, T: 6, L: 100, Seed: 5}
}

func TestSubjectSketchMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sk, err := NewSketcher(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 30; trial++ {
		s := randDNA(rng, 50+rng.Intn(2000))
		got := sk.SubjectSketch(s)
		want := sk.subjectSketchNaive(s)
		if len(got) != len(want) {
			t.Fatalf("trial counts differ: %d vs %d", len(got), len(want))
		}
		for tr := range got {
			if !reflect.DeepEqual(got[tr], want[tr]) {
				t.Fatalf("trial %d (len %d): optimized %v != naive %v", tr, len(s), got[tr], want[tr])
			}
		}
	}
}

func TestSubjectSketchEmptyInput(t *testing.T) {
	sk, _ := NewSketcher(smallParams())
	got := sk.SubjectSketch(nil)
	if len(got) != smallParams().T {
		t.Fatalf("want %d empty trials, got %d", smallParams().T, len(got))
	}
	for _, words := range got {
		if len(words) != 0 {
			t.Errorf("empty input produced words %v", words)
		}
	}
}

func TestQuerySketchShape(t *testing.T) {
	p := smallParams()
	sk, _ := NewSketcher(p)
	rng := rand.New(rand.NewSource(23))
	seg := randDNA(rng, p.L)
	words := sk.QuerySketch(seg)
	if len(words) != p.T {
		t.Fatalf("got %d words want %d", len(words), p.T)
	}
	if sk.QuerySketch([]byte("ACG")) != nil {
		t.Error("too-short segment should yield nil sketch")
	}
	if sk.QuerySketch(nil) != nil {
		t.Error("nil segment should yield nil sketch")
	}
}

// TestSketchQueryReuse checks that one reused Query gives every segment
// the sketch fresh buffers give it, including after a segment too short
// to sketch.
func TestSketchQueryReuse(t *testing.T) {
	p := smallParams()
	sk, _ := NewSketcher(p)
	rng := rand.New(rand.NewSource(29))
	var q Query
	for _, n := range []int{p.L, p.L / 2, 3, p.L, 0, p.L / 3} {
		seg := randDNA(rng, n)
		sk.SketchQuery(&q, seg)
		words, pos := sk.QuerySketchPositional(seg)
		if len(q.Words) != len(words) || (len(words) > 0 && (!reflect.DeepEqual(q.Words, words) || !reflect.DeepEqual(q.Pos, pos))) {
			t.Fatalf("len %d: reused %v %v, fresh %v %v", n, q.Words, q.Pos, words, pos)
		}
	}
}

func TestQuerySketchIsSubjectIntervalMin(t *testing.T) {
	// For a segment no longer than L, the query sketch for trial t
	// must equal the first interval's sketch of the subject sketch —
	// both are the argmin over all the segment's minimizers.
	p := smallParams()
	sk, _ := NewSketcher(p)
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 20; trial++ {
		seg := randDNA(rng, p.L)
		q := sk.QuerySketch(seg)
		s := sk.SubjectSketch(seg)
		for tr := 0; tr < p.T; tr++ {
			if len(s[tr]) == 0 {
				t.Fatalf("trial %d: subject sketch empty", tr)
			}
			if q[tr] != s[tr][0] {
				t.Fatalf("trial %d: query %v != first interval %v", tr, q[tr], s[tr][0])
			}
		}
	}
}

func TestSketchDeterminism(t *testing.T) {
	p := smallParams()
	sk1, _ := NewSketcher(p)
	sk2, _ := NewSketcher(p)
	rng := rand.New(rand.NewSource(31))
	s := randDNA(rng, 1500)
	if !reflect.DeepEqual(sk1.SubjectSketch(s), sk2.SubjectSketch(s)) {
		t.Error("same params produced different subject sketches")
	}
	if !reflect.DeepEqual(sk1.QuerySketch(s[:p.L]), sk2.QuerySketch(s[:p.L])) {
		t.Error("same params produced different query sketches")
	}
}

func TestSketchStrandInvariance(t *testing.T) {
	// Query sketches of a segment and its reverse complement must be
	// identical sets of words per trial (canonical k-mers), which is
	// what makes mapping strand-oblivious.
	p := smallParams()
	sk, _ := NewSketcher(p)
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 20; trial++ {
		seg := randDNA(rng, p.L)
		q1 := sk.QuerySketch(seg)
		q2 := sk.QuerySketch(seq.ReverseComplement(seg))
		if !reflect.DeepEqual(q1, q2) {
			t.Fatalf("strand variance: %v vs %v", q1, q2)
		}
	}
}

func TestMinHashSketch(t *testing.T) {
	p := smallParams()
	sk, _ := NewSketcher(p)
	rng := rand.New(rand.NewSource(41))
	s := randDNA(rng, 3000)
	mh := sk.MinHashSketch(s)
	if len(mh) != p.T {
		t.Fatalf("got %d words", len(mh))
	}
	// Each trial's word must be the argmin of h_t over all canonical
	// k-mers.
	for tr := 0; tr < p.T; tr++ {
		it := kmer.NewIterator(s, p.K)
		best := ^uint64(0)
		var bestW kmer.Word
		first := true
		for {
			_, canon, _, ok := it.Next()
			if !ok {
				break
			}
			h := sk.hf.Hash(tr, canon)
			if first || h < best || (h == best && canon < bestW) {
				best, bestW, first = h, canon, false
			}
		}
		if mh[tr] != bestW {
			t.Fatalf("trial %d: %v != %v", tr, mh[tr], bestW)
		}
	}
	if sk.MinHashSketch([]byte("NNNNNNNNNNNN")) != nil {
		t.Error("all-ambiguous input should yield nil")
	}
}

func TestMinHashStrandInvariance(t *testing.T) {
	p := smallParams()
	sk, _ := NewSketcher(p)
	rng := rand.New(rand.NewSource(43))
	s := randDNA(rng, 800)
	if !reflect.DeepEqual(sk.MinHashSketch(s), sk.MinHashSketch(seq.ReverseComplement(s))) {
		t.Error("MinHash sketch differs across strands")
	}
}

// appendCall is one Appender.Append call of a hand-written table.
type appendCall struct {
	subject int32
	words   [][]kmer.Word
	anchors [][]int32
}

// frozenOf builds the one-shard table of the given appends.
func frozenOf(t testing.TB, trials int, calls ...appendCall) *FrozenTable {
	t.Helper()
	b := NewBuilder(trials)
	a := b.Appender()
	for _, c := range calls {
		a.Append(c.subject, c.words, c.anchors)
	}
	sf, err := b.Freeze(1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sf.Shard(0)
}

func TestTableInsertLookup(t *testing.T) {
	tb := frozenOf(t, 3,
		appendCall{subject: 7, words: [][]kmer.Word{{1, 2}, {3}, {}}},
		appendCall{subject: 9, words: [][]kmer.Word{{1}, {}, {4}}})
	if got := tb.Lookup(0, 1); len(got) != 2 || got[0].Subject != 7 || got[1].Subject != 9 {
		t.Errorf("lookup(0,1) = %v", got)
	}
	if got := tb.Lookup(1, 3); len(got) != 1 || got[0].Subject != 7 {
		t.Errorf("lookup(1,3) = %v", got)
	}
	if got := tb.Lookup(2, 99); got != nil {
		t.Errorf("lookup miss = %v", got)
	}
	if tb.Entries() != 5 {
		t.Errorf("entries = %d want 5", tb.Entries())
	}
}

func TestTableInsertCollapsesDuplicates(t *testing.T) {
	tb := frozenOf(t, 1, appendCall{subject: 3, words: [][]kmer.Word{{5, 5, 5, 6, 5}}})
	got := tb.Lookup(0, 5)
	// One posting per ⟨trial, word, subject⟩, however often and wherever
	// in its sketch the subject repeats the word.
	if len(got) != 1 || got[0].Subject != 3 {
		t.Errorf("lookup = %v", got)
	}
	if len(tb.trials[0].words) != 2 || tb.Entries() != 2 {
		t.Errorf("words/entries = %d/%d want 2/2", len(tb.trials[0].words), tb.Entries())
	}
}

func TestTableInsertPanicsOnTrialMismatch(t *testing.T) {
	for name, call := range map[string]appendCall{
		"words":   {words: [][]kmer.Word{{1}}},
		"anchors": {words: [][]kmer.Word{{1}, {2}}, anchors: [][]int32{{1}}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			NewBuilder(2).Appender().Append(0, call.words, call.anchors)
		}()
	}
}

// TestTableMerge: the union of several appenders' runs (the gather
// step) is one table holding every list.
func TestTableMerge(t *testing.T) {
	b := NewBuilder(2)
	b.Appender().Append(0, [][]kmer.Word{{10}, {20}}, nil)
	b.Appender().Append(1, [][]kmer.Word{{10}, {30}}, nil)
	sf, err := b.Freeze(1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := sf.Lookup(0, 10); len(got) != 2 || got[0].Subject != 0 || got[1].Subject != 1 {
		t.Errorf("merged lookup = %v", got)
	}
	if sf.Entries() != 4 {
		t.Errorf("entries = %d", sf.Entries())
	}
}

// TestTableEncodeDecodeRoundTrip: a sharded table's payload bytes,
// copied elsewhere (as an index save and load does) and viewed again,
// are the same table.
func TestTableEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	sketches := randomSketches(rng, 4, 50)
	built := freezeSketches(t, 4, sketches, 2, 3, 2)
	loaded := make([]*FrozenTable, built.NumShards())
	for sd := range loaded {
		ft, err := ViewFlatFrozen(bytes.Clone(built.Shard(sd).Payload()), false)
		if err != nil {
			t.Fatalf("shard %d: %v", sd, err)
		}
		if ft.MemBytes() != built.Shard(sd).MemBytes() {
			t.Errorf("shard %d: %d bytes after the round trip, %d before", sd, ft.MemBytes(), built.Shard(sd).MemBytes())
		}
		loaded[sd] = ft
	}
	sf, err := NewShardedFrozen(loaded)
	if err != nil {
		t.Fatal(err)
	}
	assertEqualsReference(t, "reloaded", sf, referenceOf(4, sketches))
}

func TestDecodeTableRejectsGarbage(t *testing.T) {
	if _, err := ViewFlatFrozen([]byte{1, 2}, false); err == nil {
		t.Error("truncated header should fail")
	}
	if _, err := ViewFlatFrozen([]byte{0xFF, 0xFF, 0xFF, 0xFF}, false); err == nil {
		t.Error("absurd trial count should fail")
	}
}

func TestSubjectSketchPositionalAnchors(t *testing.T) {
	p := smallParams()
	sk, _ := NewSketcher(p)
	rng := rand.New(rand.NewSource(53))
	s := randDNA(rng, 2500)
	words, anchors := sk.SubjectSketchPositional(s)
	plain := sk.SubjectSketch(s)
	for tr := range words {
		if !reflect.DeepEqual(words[tr], plain[tr]) {
			t.Fatalf("trial %d: positional words differ from plain", tr)
		}
		if len(anchors[tr]) != len(words[tr]) {
			t.Fatalf("trial %d: %d anchors for %d words", tr, len(anchors[tr]), len(words[tr]))
		}
		for i := 1; i < len(anchors[tr]); i++ {
			if anchors[tr][i] < anchors[tr][i-1] {
				t.Fatalf("trial %d: anchors not nondecreasing: %v", tr, anchors[tr])
			}
		}
		for _, a := range anchors[tr] {
			if a < 0 || int(a) >= len(s) {
				t.Fatalf("trial %d: anchor %d out of range", tr, a)
			}
		}
	}
}

func TestInsertPositionalKeepsAnchors(t *testing.T) {
	tb := frozenOf(t, 2, appendCall{subject: 4,
		words:   [][]kmer.Word{{10, 11, 10}, {12}},
		anchors: [][]int32{{100, 900, 500}, {250}}})
	// The repeated word keeps its first anchor, not its smallest or last.
	got := tb.Lookup(0, 10)
	if len(got) != 1 || got[0] != (Posting{Subject: 4, Anchor: 100}) {
		t.Errorf("lookup = %v", got)
	}
	if got := tb.Lookup(1, 12); got[0].Anchor != 250 {
		t.Errorf("anchor = %v", got)
	}
}

func TestPositionalEncodeRoundTrip(t *testing.T) {
	tb := frozenOf(t, 1,
		appendCall{subject: 3, words: [][]kmer.Word{{7}}, anchors: [][]int32{{1234}}},
		appendCall{subject: 5, words: [][]kmer.Word{{7}}}) // anchor -1
	got, err := ViewFlatFrozen(bytes.Clone(tb.Payload()), false)
	if err != nil {
		t.Fatal(err)
	}
	list := got.Lookup(0, 7)
	if len(list) != 2 || list[0] != (Posting{3, 1234}) || list[1] != (Posting{5, -1}) {
		t.Errorf("decoded = %v", list)
	}
}

func TestFrozenTableMatchesHashTable(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	// Three "ranks" each append a contiguous block of subjects to their
	// own appender; the reference hash table sees them all in order.
	sketches := randomSketches(rng, 4, 60)
	ref := referenceOf(4, sketches)
	b := NewBuilder(4)
	for rank := 0; rank < 3; rank++ {
		a := b.Appender()
		for subj := 20 * rank; subj < 20*(rank+1); subj++ {
			a.Append(int32(subj), sketches[subj].words, sketches[subj].anchors)
		}
	}
	sf, err := b.Freeze(1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertEqualsReference(t, "three ranks", sf, ref)
	assertListInvariant(t, "three ranks", sf)
	ft := sf.Shard(0)
	for tr := 0; tr < 4; tr++ {
		for w := kmer.Word(0); w < 320; w++ {
			if got, want := ft.Lookup(tr, w), ref.Lookup(tr, w); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d word %d: %v, reference %v", tr, w, got, want)
			}
		}
	}
}

func TestFreezeEmptyAndErrors(t *testing.T) {
	for _, shards := range []int{1, 4} {
		sf, err := NewBuilder(2).Freeze(shards, 0, nil)
		if err != nil || sf.Entries() != 0 || sf.Shard(0).T() != 2 || sf.NumShards() != shards {
			t.Fatalf("empty freeze at P=%d: %v %v", shards, sf, err)
		}
		if sf.Lookup(0, 42) != nil {
			t.Error("lookup in empty table")
		}
	}
	// Appenders that never appended are as good as none.
	b := NewBuilder(2)
	b.Appender()
	if sf, err := b.Freeze(1, 0, nil); err != nil || sf.Entries() != 0 {
		t.Errorf("freeze of idle appenders: %v %v", sf, err)
	}
	if _, err := NewBuilder(0).Freeze(1, 0, nil); err == nil {
		t.Error("t=0 should fail")
	}
}

// TestCheckTrialLimits pins the refusal that replaced an unchecked
// narrowing: a ⟨shard, trial⟩ past the payload's 32-bit counts is named,
// not wrapped into a corrupt directory.
func TestCheckTrialLimits(t *testing.T) {
	if err := checkTrialLimits(0, 0, maxFlatCount, maxFlatCount, maxFlatCount); err != nil {
		t.Errorf("counts at the limit refused: %v", err)
	}
	for name, c := range map[string][3]int64{
		"words":    {maxFlatCount + 1, 5, 9},
		"postings": {5, 1 << 31, 9},
		"buckets":  {5, 5, 1<<33 + 1},
	} {
		err := checkTrialLimits(3, 17, c[0], c[1], c[2])
		if err == nil {
			t.Errorf("%s over the limit accepted", name)
			continue
		}
		for _, want := range []string{"shard 3", "trial 17", "use more shards"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not say %q", name, err, want)
			}
		}
	}
	// The directory is what overflows first: 2^29 words already want
	// 2^31+1 bucket bounds.
	if nb, _ := bucketGeometry(1<<29, ^kmer.Word(0)); checkTrialLimits(0, 0, 1<<29, 1<<29, nb) == nil {
		t.Errorf("2^29 words with %d bucket bounds accepted", nb)
	}
}

func TestTableFreezeRoundTrip(t *testing.T) {
	ft := frozenOf(t, 2, appendCall{subject: 9,
		words: [][]kmer.Word{{3, 5}, {4}}, anchors: [][]int32{{11, 22}, {33}}})
	if ft.Entries() != 3 || ft.T() != 2 {
		t.Fatalf("entries/T %d/%d", ft.Entries(), ft.T())
	}
	got := ft.Lookup(0, 5)
	if len(got) != 1 || got[0] != (Posting{9, 22}) {
		t.Errorf("lookup = %v", got)
	}
	if ft.Lookup(1, 99) != nil {
		t.Error("missing word should be nil")
	}
}

// TestInsertQueryWords: the whole-sequence MinHash shape — one word
// per trial, no anchors.
func TestInsertQueryWords(t *testing.T) {
	tb := frozenOf(t, 3, appendCall{subject: 5, words: [][]kmer.Word{{7}, {8}, {9}}})
	for tr, w := range []kmer.Word{7, 8, 9} {
		if got := tb.Lookup(tr, w); len(got) != 1 || got[0] != (Posting{Subject: 5, Anchor: -1}) {
			t.Errorf("trial %d lookup = %v", tr, got)
		}
	}
}

// randomSketches draws random positional sketches for nSubjects
// synthetic contigs: few distinct words, so lists are long and subjects
// repeat words within a trial.
func randomSketches(rng *rand.Rand, trials, nSubjects int) []subjectSketch {
	out := make([]subjectSketch, nSubjects)
	for s := range out {
		out[s].words = make([][]kmer.Word, trials)
		out[s].anchors = make([][]int32, trials)
		for tr := 0; tr < trials; tr++ {
			n := rng.Intn(8)
			for i := 0; i < n; i++ {
				out[s].words[tr] = append(out[s].words[tr], kmer.Word(rng.Intn(300)))
				out[s].anchors[tr] = append(out[s].anchors[tr], int32(rng.Intn(100000)))
			}
		}
	}
	return out
}

// TestFrozenEncodeDecodeRoundTrip pins the flat payload as the one
// representation: the bytes of a built table, viewed again as a heap
// buffer, as a mapping and from an unaligned address, answer every
// lookup alike — and the one thing the view's mapped flag changes is
// which column of the memory accounting the table's bytes land in.
func TestFrozenEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for _, nSubjects := range []int{0, 1, 25} {
		ft := freezeSketches(t, 3, randomSketches(rng, 3, nSubjects), 1, 1, 1).Shard(0)
		if ft.mapped || ft.ResidentBytes() != ft.MemBytes() {
			t.Fatalf("a built table accounts %d of %d bytes resident", ft.ResidentBytes(), ft.MemBytes())
		}
		buf := ft.Payload()
		heapView, err := ViewFlatFrozen(buf, false)
		if err != nil {
			t.Fatalf("nSubjects=%d: %v", nSubjects, err)
		}
		mappedView, err := ViewFlatFrozen(buf, true)
		if err != nil {
			t.Fatalf("nSubjects=%d: %v", nSubjects, err)
		}
		// One byte off alignment: the view must copy, so the table is
		// resident whatever the caller said the bytes were.
		shifted := append(make([]byte, 1, len(buf)+1), buf...)[1:]
		unaligned, err := ViewFlatFrozen(shifted, true)
		if err != nil {
			t.Fatalf("nSubjects=%d unaligned: %v", nSubjects, err)
		}
		for name, got := range map[string]*FrozenTable{"heap view": heapView, "mapped view": mappedView, "unaligned": unaligned} {
			if got.Entries() != ft.Entries() || got.T() != ft.T() || got.MemBytes() != ft.MemBytes() {
				t.Fatalf("nSubjects=%d %s: entries/T/bytes %d/%d/%d != %d/%d/%d", nSubjects, name,
					got.Entries(), got.T(), got.MemBytes(), ft.Entries(), ft.T(), ft.MemBytes())
			}
			for tr := 0; tr < ft.T(); tr++ {
				for w := kmer.Word(0); w < 320; w++ {
					if !reflect.DeepEqual(got.Lookup(tr, w), ft.Lookup(tr, w)) {
						t.Fatalf("%s: trial %d word %d postings differ after round trip", name, tr, w)
					}
				}
			}
		}
		if heapView.ResidentBytes() != ft.MemBytes() || heapView.MappedBytes() != 0 {
			t.Fatalf("heap view accounts %d resident / %d mapped", heapView.ResidentBytes(), heapView.MappedBytes())
		}
		if mappedView.MappedBytes() != ft.MemBytes() || mappedView.ResidentBytes() != 0 {
			t.Fatalf("mapped view accounts %d resident / %d mapped", mappedView.ResidentBytes(), mappedView.MappedBytes())
		}
		if unaligned.mapped || &unaligned.Payload()[0] == &shifted[0] || !bytes.Equal(unaligned.Payload(), buf) {
			t.Fatalf("unaligned view: mapped=%v, aliases its input=%v", unaligned.mapped, &unaligned.Payload()[0] == &shifted[0])
		}
	}
}

// TestViewFlatFrozenRefusesBigEndian: the payload is little-endian and
// served in place, so a big-endian host gets an error that says so —
// there is no decoder to fall back to.
func TestViewFlatFrozenRefusesBigEndian(t *testing.T) {
	good := frozenOf(t, 1, appendCall{subject: 1, words: [][]kmer.Word{{5, 9}}}).Payload()
	hostLittleEndian = false
	defer func() { hostLittleEndian = true }()
	if _, err := ViewFlatFrozen(good, false); err == nil || !strings.Contains(err.Error(), "big-endian") {
		t.Fatalf("big-endian host: err = %v", err)
	}
	if _, err := NewBuilder(1).Freeze(1, 1, nil); err == nil {
		t.Fatal("a big-endian host built a table")
	}
}

// TestViewFlatFrozenRejectsCorrupt checks the view's structural
// validation: a directory pointing outside the payload (including an
// offset that wraps u64), unsorted words and non-monotone offsets must
// fail, not produce a table that panics or breaks binary search.
func TestViewFlatFrozenRejectsCorrupt(t *testing.T) {
	good := frozenOf(t, 1, appendCall{subject: 1, words: [][]kmer.Word{{5, 9}}, anchors: [][]int32{{10, 20}}}).Payload()
	dirs, err := parseFlatDirs(good)
	if err != nil {
		t.Fatal(err)
	}
	d := dirs[0]
	le := binary.LittleEndian
	cases := map[string]func(b []byte) []byte{
		"unsorted words": func(b []byte) []byte {
			copy(b[d.wordsOff:], good[d.wordsOff+8:d.wordsOff+16])
			copy(b[d.wordsOff+8:], good[d.wordsOff:d.wordsOff+8])
			return b
		},
		"offsets end short of the posting count": func(b []byte) []byte {
			le.PutUint32(b[d.offsets+8:], 1)
			return b
		},
		"words offset wraps u64": func(b []byte) []byte {
			le.PutUint32(b[4:], 1)
			le.PutUint64(b[4+16:], 1<<64-8)
			return b
		},
		"postings offset past the payload": func(b []byte) []byte {
			le.PutUint64(b[4+32:], uint64(len(b)))
			return b
		},
		"sections out of order": func(b []byte) []byte {
			le.PutUint64(b[4+24:], d.wordsOff) // offsets on top of words
			return b
		},
		"truncated inside the last section": func(b []byte) []byte { return b[:d.buckets+2] },
	}
	for name, corrupt := range cases {
		bad := corrupt(bytes.Clone(good))
		if _, err := ViewFlatFrozen(bad, false); err == nil {
			t.Errorf("%s: view accepted it", name)
		}
	}
}

// TestQuerySketchDegenerateHashFamily regresses the sentinel bug in
// querySketchTuples: with a constant hash family every candidate ties
// on the hash, and the former ⟨max,max⟩ sentinel seed left idx at -1
// (panicking on tuples[best.idx]) whenever a candidate also tied the
// sentinel word. Seeding from the first tuple keeps the index valid
// and breaks ties toward the smallest word.
func TestQuerySketchDegenerateHashFamily(t *testing.T) {
	sk, err := NewSketcher(Params{K: 8, W: 4, T: 2, L: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A=0 makes h(x) = B for every x: all candidates tie on the hash.
	p := primes61[0]
	sk.hf = &HashFamily{A: []uint64{0, 0}, B: []uint64{7, 7}, P: []uint64{p, p}}
	rng := rand.New(rand.NewSource(9))
	seg := randDNA(rng, 150)
	words, pos := sk.QuerySketchPositional(seg)
	if words == nil {
		t.Fatal("segment produced no sketch")
	}
	for tr := range words {
		// The tie-break must select the minimum word among the
		// segment's minimizers, and pos must point at a real tuple.
		if pos[tr] < 0 || int(pos[tr]) >= len(seg) {
			t.Fatalf("trial %d: position %d out of segment range", tr, pos[tr])
		}
		if tr > 0 && words[tr] != words[0] {
			t.Fatalf("constant family must pick the same word per trial: %d vs %d", words[tr], words[0])
		}
	}
}

// subjectSketchNaive is the direct transliteration of Algorithm 1,
// kept as the reference implementation the optimized path is tested
// against.
func (s *Sketcher) subjectSketchNaive(sequence []byte) [][]kmer.Word {
	tuples := minimizer.Extract(sequence, s.mp)
	out := make([][]kmer.Word, s.p.T)
	for i, anchor := range tuples {
		limit := anchor.Pos + int32(s.p.L)
		var interval []minimizer.Tuple
		for j := i; j < len(tuples) && tuples[j].Pos <= limit; j++ {
			interval = append(interval, tuples[j])
		}
		for t := 0; t < s.p.T; t++ {
			best := hentry{h: ^uint64(0), w: ^kmer.Word(0)}
			for _, tp := range interval {
				e := hentry{h: s.hf.Hash(t, tp.Kmer), w: tp.Kmer}
				if less(e, best) {
					best = e
				}
			}
			m := len(out[t])
			if m == 0 || out[t][m-1] != best.w {
				out[t] = append(out[t], best.w)
			}
		}
	}
	return out
}
