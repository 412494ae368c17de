package sketch

import (
	"bytes"
	"encoding/binary"
	"math/big"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/kmer"
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
	for tr := 0; tr < h1.T(); tr++ {
		if h1.Hash(tr, 12345) != h2.Hash(tr, 12345) {
			t.Fatalf("trial %d: hash mismatch across identical families", tr)
		}
	}
}

func TestHashBounds(t *testing.T) {
	hf := NewHashFamily(8, 7)
	f := func(x uint64) bool {
		w := kmer.Word(x & (1<<62 - 1))
		for tr := 0; tr < hf.T(); tr++ {
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
			h := sk.Family().Hash(tr, canon)
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

func TestTableInsertLookup(t *testing.T) {
	tb := NewTable(3)
	tb.Insert(7, [][]kmer.Word{{1, 2}, {3}, {}})
	tb.Insert(9, [][]kmer.Word{{1}, {}, {4}})
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
	tb := NewTable(1)
	tb.Insert(3, [][]kmer.Word{{5, 5, 5, 6, 5}})
	got := tb.Lookup(0, 5)
	// Consecutive duplicates collapse; the non-consecutive repeat is
	// also collapsed because the tail is still subject 3.
	if len(got) != 1 || got[0].Subject != 3 {
		t.Errorf("lookup = %v", got)
	}
	if tb.Words(0) != 2 {
		t.Errorf("words = %d want 2", tb.Words(0))
	}
}

func TestTableInsertPanicsOnTrialMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewTable(2).Insert(0, [][]kmer.Word{{1}})
}

func TestTableMerge(t *testing.T) {
	a := NewTable(2)
	a.Insert(0, [][]kmer.Word{{10}, {20}})
	b := NewTable(2)
	b.Insert(1, [][]kmer.Word{{10}, {30}})
	a.Merge(b)
	if got := a.Lookup(0, 10); len(got) != 2 {
		t.Errorf("merged lookup = %v", got)
	}
	if a.Entries() != 4 {
		t.Errorf("entries = %d", a.Entries())
	}
}

func TestTableEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	tb := NewTable(4)
	for subj := int32(0); subj < 50; subj++ {
		perTrial := make([][]kmer.Word, 4)
		for tr := range perTrial {
			n := rng.Intn(5)
			for i := 0; i < n; i++ {
				perTrial[tr] = append(perTrial[tr], kmer.Word(rng.Intn(1000)))
			}
		}
		tb.Insert(subj, perTrial)
	}
	var buf bytes.Buffer
	if err := tb.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != tb.EncodedSize() {
		t.Errorf("EncodedSize %d != actual %d", tb.EncodedSize(), buf.Len())
	}
	got, err := DecodeTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Entries() != tb.Entries() || got.T() != tb.T() {
		t.Fatalf("decoded entries=%d T=%d; want %d,%d", got.Entries(), got.T(), tb.Entries(), tb.T())
	}
	for tr := 0; tr < tb.T(); tr++ {
		if got.Words(tr) != tb.Words(tr) {
			t.Errorf("trial %d words %d != %d", tr, got.Words(tr), tb.Words(tr))
		}
	}
}

func TestDecodeTableRejectsGarbage(t *testing.T) {
	if _, err := DecodeTable(bytes.NewReader([]byte{1, 2})); err == nil {
		t.Error("truncated header should fail")
	}
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // implausible trial count
	if _, err := DecodeTable(&buf); err == nil {
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
	tb := NewTable(2)
	tb.InsertPositional(4,
		[][]kmer.Word{{10, 11}, {12}},
		[][]int32{{100, 900}, {250}})
	got := tb.Lookup(0, 10)
	if len(got) != 1 || got[0] != (Posting{Subject: 4, Anchor: 100}) {
		t.Errorf("lookup = %v", got)
	}
	if got := tb.Lookup(1, 12); got[0].Anchor != 250 {
		t.Errorf("anchor = %v", got)
	}
}

func TestPositionalEncodeRoundTrip(t *testing.T) {
	tb := NewTable(1)
	tb.InsertPositional(3, [][]kmer.Word{{7}}, [][]int32{{1234}})
	tb.Insert(5, [][]kmer.Word{{7}}) // anchor -1
	var buf bytes.Buffer
	if err := tb.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != tb.EncodedSize() {
		t.Errorf("EncodedSize %d != actual %d", tb.EncodedSize(), buf.Len())
	}
	got, err := DecodeTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	list := got.Lookup(0, 7)
	if len(list) != 2 || list[0] != (Posting{3, 1234}) || list[1] != (Posting{5, -1}) {
		t.Errorf("decoded = %v", list)
	}
}

func TestDecodeIntoEqualsDecodeThenMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	mk := func(subjects []int32) (*Table, []byte) {
		tb := NewTable(3)
		for _, s := range subjects {
			perTrial := make([][]kmer.Word, 3)
			anchors := make([][]int32, 3)
			for tr := range perTrial {
				n := 1 + rng.Intn(4)
				for i := 0; i < n; i++ {
					perTrial[tr] = append(perTrial[tr], kmer.Word(rng.Intn(50)))
					anchors[tr] = append(anchors[tr], int32(rng.Intn(10000)))
				}
			}
			tb.InsertPositional(s, perTrial, anchors)
		}
		var buf bytes.Buffer
		if err := tb.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return tb, buf.Bytes()
	}
	_, b1 := mk([]int32{0, 1, 2})
	_, b2 := mk([]int32{3, 4})

	viaMerge := NewTable(3)
	for _, b := range [][]byte{b1, b2} {
		dec, err := DecodeTable(bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		viaMerge.Merge(dec)
	}
	viaInto := NewTable(3)
	for _, b := range [][]byte{b1, b2} {
		if err := viaInto.DecodeInto(bytes.NewReader(b)); err != nil {
			t.Fatal(err)
		}
	}
	if viaInto.Entries() != viaMerge.Entries() {
		t.Fatalf("entries %d != %d", viaInto.Entries(), viaMerge.Entries())
	}
	for tr := 0; tr < 3; tr++ {
		if viaInto.Words(tr) != viaMerge.Words(tr) {
			t.Fatalf("trial %d words %d != %d", tr, viaInto.Words(tr), viaMerge.Words(tr))
		}
		for w := kmer.Word(0); w < 50; w++ {
			a, b := viaInto.Lookup(tr, w), viaMerge.Lookup(tr, w)
			if len(a) != len(b) {
				t.Fatalf("trial %d word %d: %v vs %v", tr, w, a, b)
			}
			// Same multiset (order may differ across merge strategies
			// only when payload order differs — here it is identical).
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("trial %d word %d posting %d: %v vs %v", tr, w, i, a, b)
				}
			}
		}
	}
	if err := viaInto.DecodeInto(bytes.NewReader([]byte{9, 0, 0, 0})); err == nil {
		t.Error("trial-count mismatch should fail")
	}
}

func TestFrozenTableMatchesHashTable(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	// Build a reference hash table from three "rank" tables, and the
	// frozen table from their encodings.
	full := NewTable(4)
	var payloads [][]byte
	subj := int32(0)
	for rank := 0; rank < 3; rank++ {
		local := NewTable(4)
		for s := 0; s < 20; s++ {
			perTrial := make([][]kmer.Word, 4)
			anchors := make([][]int32, 4)
			for tr := range perTrial {
				n := rng.Intn(6)
				for i := 0; i < n; i++ {
					perTrial[tr] = append(perTrial[tr], kmer.Word(rng.Intn(200)))
					anchors[tr] = append(anchors[tr], int32(rng.Intn(100000)))
				}
			}
			local.InsertPositional(subj, perTrial, anchors)
			full.InsertPositional(subj, perTrial, anchors)
			subj++
		}
		var buf bytes.Buffer
		if err := local.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, buf.Bytes())
	}
	ft, err := FreezePayloads(4, payloads)
	if err != nil {
		t.Fatal(err)
	}
	if ft.Entries() != full.Entries() {
		t.Fatalf("entries %d != %d", ft.Entries(), full.Entries())
	}
	for tr := 0; tr < 4; tr++ {
		if ft.Words(tr) != full.Words(tr) {
			t.Fatalf("trial %d words %d != %d", tr, ft.Words(tr), full.Words(tr))
		}
		for w := kmer.Word(0); w < 220; w++ {
			got := ft.Lookup(tr, w)
			want := full.Lookup(tr, w)
			if len(got) != len(want) {
				t.Fatalf("trial %d word %d: %d postings vs %d", tr, w, len(got), len(want))
			}
			// Multiset equality: both orderings list subjects in
			// ascending-rank insertion order here because ranks own
			// disjoint ascending subject ranges.
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d word %d posting %d: %v vs %v", tr, w, i, got[i], want[i])
				}
			}
		}
	}
}

func TestFreezeEmptyAndErrors(t *testing.T) {
	ft, err := FreezePayloads(2, nil)
	if err != nil || ft.Entries() != 0 {
		t.Errorf("empty freeze: %v %v", ft, err)
	}
	if ft.Lookup(0, 42) != nil {
		t.Error("lookup in empty frozen table")
	}
	if _, err := FreezePayloads(0, nil); err == nil {
		t.Error("t=0 should fail")
	}
	// Payload with wrong trial count.
	tb := NewTable(3)
	var buf bytes.Buffer
	if err := tb.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := FreezePayloads(2, [][]byte{buf.Bytes()}); err == nil {
		t.Error("trial mismatch should fail")
	}
	// Truncated payload.
	if _, err := FreezePayloads(3, [][]byte{buf.Bytes()[:5]}); err == nil {
		t.Error("truncated payload should fail")
	}
}

func TestTableFreezeRoundTrip(t *testing.T) {
	tb := NewTable(2)
	tb.InsertPositional(9, [][]kmer.Word{{3, 5}, {4}}, [][]int32{{11, 22}, {33}})
	ft := tb.Freeze()
	if ft.Entries() != tb.Entries() {
		t.Fatalf("entries %d != %d", ft.Entries(), tb.Entries())
	}
	got := ft.Lookup(0, 5)
	if len(got) != 1 || got[0] != (Posting{9, 22}) {
		t.Errorf("lookup = %v", got)
	}
	if ft.Lookup(1, 99) != nil {
		t.Error("missing word should be nil")
	}
}

func TestInsertQueryWords(t *testing.T) {
	tb := NewTable(3)
	tb.InsertQueryWords(5, []kmer.Word{7, 8, 9})
	for tr, w := range []kmer.Word{7, 8, 9} {
		if got := tb.Lookup(tr, w); len(got) != 1 || got[0].Subject != 5 {
			t.Errorf("trial %d lookup = %v", tr, got)
		}
	}
}

// randomTable builds a table with random positional sketches over
// nSubjects synthetic contigs (shared by the direct-freeze tests).
func randomTable(t testing.TB, rng *rand.Rand, trials, nSubjects int) *Table {
	t.Helper()
	tb := NewTable(trials)
	for s := 0; s < nSubjects; s++ {
		perTrial := make([][]kmer.Word, trials)
		anchors := make([][]int32, trials)
		for tr := range perTrial {
			n := rng.Intn(8)
			for i := 0; i < n; i++ {
				perTrial[tr] = append(perTrial[tr], kmer.Word(rng.Intn(300)))
				anchors[tr] = append(anchors[tr], int32(rng.Intn(100000)))
			}
		}
		tb.InsertPositional(int32(s), perTrial, anchors)
	}
	return tb
}

// TestFreezeDirectMatchesPayloadMerge pins that the in-memory Freeze
// produces exactly the table the encode→FreezePayloads path would —
// the two construction routes of the frozen serving table must agree.
func TestFreezeDirectMatchesPayloadMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	tb := randomTable(t, rng, 4, 30)

	direct := tb.Freeze()
	var buf bytes.Buffer
	if err := tb.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	viaPayload, err := FreezePayloads(tb.T(), [][]byte{buf.Bytes()})
	if err != nil {
		t.Fatal(err)
	}
	if direct.Entries() != viaPayload.Entries() || direct.Entries() != tb.Entries() {
		t.Fatalf("entries: direct %d, payload %d, table %d",
			direct.Entries(), viaPayload.Entries(), tb.Entries())
	}
	for tr := 0; tr < tb.T(); tr++ {
		if direct.Words(tr) != viaPayload.Words(tr) {
			t.Fatalf("trial %d words %d != %d", tr, direct.Words(tr), viaPayload.Words(tr))
		}
		for w := kmer.Word(0); w < 320; w++ {
			if !reflect.DeepEqual(direct.Lookup(tr, w), viaPayload.Lookup(tr, w)) {
				t.Fatalf("trial %d word %d postings differ", tr, w)
			}
		}
	}
}

// TestFrozenEncodeDecodeRoundTrip pins the flat payload: encode a
// frozen table, read it back both ways (zero-copy view, copying
// decode), and compare every lookup — plus the one thing the view's
// mapped flag changes, which column of the memory accounting the
// table's bytes land in.
func TestFrozenEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for _, nSubjects := range []int{0, 1, 25} {
		ft := randomTable(t, rng, 3, nSubjects).Freeze()
		buf := ft.EncodeFlat()
		heapView, err := ViewFlatFrozen(buf, false)
		if err != nil {
			t.Fatalf("nSubjects=%d: %v", nSubjects, err)
		}
		mappedView, err := ViewFlatFrozen(buf, true)
		if err != nil {
			t.Fatalf("nSubjects=%d: %v", nSubjects, err)
		}
		decoded, err := DecodeFlatFrozen(buf)
		if err != nil {
			t.Fatalf("nSubjects=%d: %v", nSubjects, err)
		}
		for name, got := range map[string]*FrozenTable{"heap view": heapView, "mapped view": mappedView, "decode": decoded} {
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
		if hostLittleEndian && (mappedView.MappedBytes() != ft.MemBytes() || mappedView.ResidentBytes() != 0) {
			t.Fatalf("mapped view accounts %d resident / %d mapped", mappedView.ResidentBytes(), mappedView.MappedBytes())
		}
	}
}

// TestViewFlatFrozenRejectsCorrupt checks the flat readers' structural
// validation: a directory pointing outside the payload (including an
// offset that wraps u64), unsorted words and non-monotone offsets must
// fail, not produce a table that panics or breaks binary search.
func TestViewFlatFrozenRejectsCorrupt(t *testing.T) {
	tb := NewTable(1)
	tb.InsertPositional(1, [][]kmer.Word{{5, 9}}, [][]int32{{10, 20}})
	good := tb.Freeze().EncodeFlat()
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
		if _, err := DecodeFlatFrozen(bad); err == nil {
			t.Errorf("%s: decode accepted it", name)
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
