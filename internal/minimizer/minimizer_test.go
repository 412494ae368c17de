package minimizer

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
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

// naiveExtract is the direct definition: for every full window of w
// consecutive k-mers, find the smallest canonical k-mer (leftmost on
// ties) and emit it when its position differs from the previous
// emission. Ambiguity gaps restart windows.
func naiveExtract(s []byte, p Params) []Tuple {
	type km struct {
		canon      kmer.Word
		pos        int
		fwdIsCanon bool
	}
	// Split into contiguous valid runs.
	var out []Tuple
	lastPos := -1
	runStart := 0
	emitRun := func(run []byte, off int) {
		var kms []km
		for i := 0; i+p.K <= len(run); i++ {
			w, ok := kmer.Encode(run[i:i+p.K], p.K)
			if !ok {
				panic("invalid base in run")
			}
			c := kmer.Canonical(w, p.K)
			kms = append(kms, km{c, off + i, c == w})
		}
		for i := 0; i+p.W <= len(kms); i++ {
			best := kms[i]
			for _, c := range kms[i+1 : i+p.W] {
				if c.canon < best.canon {
					best = c
				}
			}
			if best.pos != lastPos {
				out = append(out, Tuple{Kmer: best.canon, Pos: int32(best.pos), FwdIsCanon: best.fwdIsCanon})
				lastPos = best.pos
			}
		}
	}
	for i := 0; i <= len(s); i++ {
		valid := false
		if i < len(s) {
			_, valid = seq.Code(s[i])
		}
		if !valid {
			if i > runStart {
				emitRun(s[runStart:i], runStart)
			}
			runStart = i + 1
		}
	}
	return out
}

// shapedDNA returns n random bases with the shapes the window logic has
// edge cases for mixed in: homopolymer runs (tied keys), lower-case
// stretches, isolated Ns and N-runs.
func shapedDNA(rng *rand.Rand, n int) []byte {
	s := randDNA(rng, n)
	fill := func(i, run int, b func(j int) byte) int {
		for end := min(i+run, len(s)); i < end; i++ {
			s[i] = b(i)
		}
		return i
	}
	for i := 0; i < len(s); {
		switch r := rng.Intn(1000); {
		case r < 2:
			b := seq.Code2Base[rng.Intn(4)]
			i = fill(i, 1+rng.Intn(400), func(int) byte { return b })
		case r < 12:
			i = fill(i, 1+rng.Intn(50), func(j int) byte { return s[j] | 0x20 })
		case r < 17:
			s[i] = 'N'
			i++
		case r < 18:
			i = fill(i, 1+rng.Intn(60), func(int) byte { return 'N' })
		default:
			i++
		}
	}
	return s
}

// forEachExtractCase runs fn over the differential tests' cases under
// order: small random parameters, then the paper's k=16/w=100 and the
// extremes of k and of w around the ring's stack/heap boundary, each on
// shaped DNA, an all-A run and sequences one base short of and exactly
// one window long.
func forEachExtractCase(seed int64, order Ordering, fn func(p Params, s []byte)) {
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 60; trial++ {
		fn(Params{K: 2 + rng.Intn(8), W: 1 + rng.Intn(10), Order: order}, shapedDNA(rng, rng.Intn(400)))
	}
	for _, k := range []int{1, 16, 31} {
		for _, w := range []int{1, 100, stackRing - 1, stackRing, stackRing + 1, 300} {
			p := Params{K: k, W: w, Order: order}
			fn(p, shapedDNA(rng, 3000))
			fn(p, bytes.Repeat([]byte{'A'}, 1000))
			fn(p, randDNA(rng, k+w-2))
			fn(p, randDNA(rng, k+w-1))
		}
	}
}

// checkExtract fails t when Extract and AppendExtract (onto a non-empty
// prefix) disagree with the naive reference on s.
func checkExtract(t testing.TB, p Params, s []byte, naive func([]byte, Params) []Tuple) {
	t.Helper()
	want := naive(s, p)
	got := Extract(s, p)
	if !slices.Equal(got, want) {
		t.Fatalf("k=%d w=%d order=%d len=%d: got %d tuples want %d\ngot:  %v\nwant: %v",
			p.K, p.W, p.Order, len(s), len(got), len(want), got, want)
	}
	prefix := []Tuple{{Kmer: 1, Pos: -1}}
	if app := AppendExtract(prefix, s, p); app[0] != prefix[0] || !slices.Equal(app[1:], want) {
		t.Fatalf("k=%d w=%d order=%d len=%d: AppendExtract differs from Extract", p.K, p.W, p.Order, len(s))
	}
}

func TestExtractMatchesNaive(t *testing.T) {
	forEachExtractCase(3, OrderLex, func(p Params, s []byte) { checkExtract(t, p, s, naiveExtract) })
}

func TestExtractPositionsSortedAndDeduped(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randDNA(rng, 50+rng.Intn(500))
		tuples := Extract(s, Params{K: 5, W: 8})
		for i := 1; i < len(tuples); i++ {
			if tuples[i].Pos <= tuples[i-1].Pos {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinimizerSetRevCompInvariant(t *testing.T) {
	// The canonical minimizer *set* of a sequence equals that of its
	// reverse complement — the property that makes mapping
	// strand-oblivious.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randDNA(rng, 60+rng.Intn(300))
		p := Params{K: 7, W: 5}
		a := Set(s, p)
		b := Set(seq.ReverseComplement(s), p)
		if len(a) != len(b) {
			return false
		}
		for w := range a {
			if _, ok := b[w]; !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestShortSequenceYieldsNothing(t *testing.T) {
	p := Params{K: 16, W: 10}
	if got := Extract([]byte("ACGT"), p); len(got) != 0 {
		t.Errorf("short sequence: got %v", got)
	}
	if got := Extract(nil, p); len(got) != 0 {
		t.Errorf("nil sequence: got %v", got)
	}
	// Exactly k+w-1 bases = exactly one full window.
	rng := rand.New(rand.NewSource(1))
	s := randDNA(rng, p.K+p.W-1)
	if got := Extract(s, p); len(got) != 1 {
		t.Errorf("one-window sequence: got %d tuples", len(got))
	}
}

func TestAllAmbiguous(t *testing.T) {
	s := []byte("NNNNNNNNNNNNNNNNNNNNNNNNNN")
	if got := Extract(s, Params{K: 4, W: 3}); len(got) != 0 {
		t.Errorf("got %v", got)
	}
}

func TestDensityApprox(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := randDNA(rng, 200_000)
	p := Params{K: 15, W: 10}
	d := float64(len(Extract(s, p))) / float64(len(s)-p.K+1)
	want := 2.0 / float64(p.W+1)
	if math.Abs(d-want) > 0.25*want {
		t.Errorf("density %v far from expected %v", d, want)
	}
}

func TestW1KeepsEveryKmer(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := randDNA(rng, 100)
	p := Params{K: 6, W: 1}
	tuples := Extract(s, p)
	if len(tuples) != len(s)-p.K+1 {
		t.Errorf("w=1: got %d tuples want %d", len(tuples), len(s)-p.K+1)
	}
}

func TestParamsValidate(t *testing.T) {
	if err := (Params{K: 16, W: 100}).Validate(); err != nil {
		t.Errorf("valid params: %v", err)
	}
	for _, p := range []Params{{K: 0, W: 5}, {K: 40, W: 5}, {K: 5, W: 0}, {K: -1, W: -1}} {
		if err := p.Validate(); err == nil {
			t.Errorf("params %+v should be invalid", p)
		}
	}
}

func TestExtractPanicsOnInvalidParams(t *testing.T) {
	for _, p := range []Params{{K: 0, W: 0}, {K: 5, W: 0}, {K: 5, W: -1}, {K: kmer.MaxK + 1, W: 5}} {
		for name, extract := range map[string]func(){
			"Extract":       func() { Extract([]byte("ACGTACGT"), p) },
			"AppendExtract": func() { AppendExtract(nil, []byte("ACGTACGT"), p) },
		} {
			func() {
				defer func() {
					err, _ := recover().(error)
					if err == nil || err.Error() != p.Validate().Error() {
						t.Errorf("%s(%+v): panicked with %v, want the Validate error %v", name, p, err, p.Validate())
					}
				}()
				extract()
			}()
		}
	}
}

func TestJaccardSelfIsOne(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := randDNA(rng, 500)
	p := Params{K: 8, W: 6}
	if got := Jaccard(s, s, p); got != 1 {
		t.Errorf("self minimizer Jaccard = %v", got)
	}
	if got := Jaccard(nil, nil, p); got != 0 {
		t.Errorf("empty minimizer Jaccard = %v", got)
	}
}

func TestJaccardTracksSimilarity(t *testing.T) {
	// Mutating a sequence should lower the minimizer Jaccard estimate
	// monotonically-ish; we just check a strong perturbation is far
	// below a mild one.
	rng := rand.New(rand.NewSource(13))
	s := randDNA(rng, 5000)
	p := Params{K: 12, W: 8}
	mild := append([]byte(nil), s...)
	strong := append([]byte(nil), s...)
	mutate := func(dst []byte, rate float64) {
		for i := range dst {
			if rng.Float64() < rate {
				dst[i] = seq.Code2Base[rng.Intn(4)]
			}
		}
	}
	mutate(mild, 0.01)
	mutate(strong, 0.30)
	jm := Jaccard(s, mild, p)
	js := Jaccard(s, strong, p)
	if jm <= js {
		t.Errorf("mild %v should exceed strong %v", jm, js)
	}
	if jm < 0.5 {
		t.Errorf("1%% mutation dropped Jaccard to %v", jm)
	}
}

// naiveExtractOrdered generalizes naiveExtract to any ordering.
func naiveExtractOrdered(s []byte, p Params) []Tuple {
	type km struct {
		key        uint64
		canon      kmer.Word
		pos        int
		fwdIsCanon bool
	}
	var out []Tuple
	lastPos := -1
	runStart := 0
	emitRun := func(run []byte, off int) {
		var kms []km
		for i := 0; i+p.K <= len(run); i++ {
			w, ok := kmer.Encode(run[i:i+p.K], p.K)
			if !ok {
				panic("invalid base in run")
			}
			c := kmer.Canonical(w, p.K)
			kms = append(kms, km{p.rank(c), c, off + i, c == w})
		}
		for i := 0; i+p.W <= len(kms); i++ {
			best := kms[i]
			for _, c := range kms[i+1 : i+p.W] {
				if c.key < best.key {
					best = c
				}
			}
			if best.pos != lastPos {
				out = append(out, Tuple{Kmer: best.canon, Pos: int32(best.pos), FwdIsCanon: best.fwdIsCanon})
				lastPos = best.pos
			}
		}
	}
	for i := 0; i <= len(s); i++ {
		valid := false
		if i < len(s) {
			_, valid = seq.Code(s[i])
		}
		if !valid {
			if i > runStart {
				emitRun(s[runStart:i], runStart)
			}
			runStart = i + 1
		}
	}
	return out
}

func TestHashOrderingMatchesNaive(t *testing.T) {
	forEachExtractCase(71, OrderHash, func(p Params, s []byte) { checkExtract(t, p, s, naiveExtractOrdered) })
}

// FuzzAppendExtract checks the winnowing loop against the naive
// reference under both orderings on arbitrary bytes, k in [1,31] and w
// in [1,300].
func FuzzAppendExtract(f *testing.F) {
	f.Add([]byte("ACGTNacgtAAAAAAAAAAAAAAAAAAAANNNNGATTACA"), uint8(4), uint16(3))
	f.Add(bytes.Repeat([]byte{'A'}, 400), uint8(15), uint16(100))
	f.Add(randDNA(rand.New(rand.NewSource(5)), 600), uint8(30), uint16(257))
	f.Fuzz(func(t *testing.T, s []byte, k uint8, w uint16) {
		if len(s) > 512 {
			s = s[:512] // keeps the O(n·w) reference fast
		}
		p := Params{K: 1 + int(k)%kmer.MaxK, W: 1 + int(w)%300}
		checkExtract(t, p, s, naiveExtract)
		p.Order = OrderHash
		checkExtract(t, p, s, naiveExtractOrdered)
	})
}

func TestHashOrderingAvoidsLexBias(t *testing.T) {
	// Lexicographic ordering systematically selects numerically small
	// (A-leading) k-mers; hash ordering samples uniformly. The mean
	// packed value of lex-selected minimizers must therefore sit far
	// below that of hash-selected ones on random sequence.
	rng := rand.New(rand.NewSource(73))
	s := randDNA(rng, 50_000)
	const k = 12
	meanWord := func(tuples []Tuple) float64 {
		var sum float64
		for _, tp := range tuples {
			sum += float64(tp.Kmer)
		}
		return sum / float64(len(tuples))
	}
	lex := Extract(s, Params{K: k, W: 10, Order: OrderLex})
	hash := Extract(s, Params{K: k, W: 10, Order: OrderHash})
	if len(lex) == 0 || len(hash) == 0 {
		t.Fatal("no minimizers extracted")
	}
	if meanWord(lex) >= 0.5*meanWord(hash) {
		t.Errorf("lex mean %.3g not far below hash mean %.3g", meanWord(lex), meanWord(hash))
	}
}

func TestHashOrderingRevCompInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	s := randDNA(rng, 400)
	p := Params{K: 7, W: 5, Order: OrderHash}
	a := Set(s, p)
	b := Set(seq.ReverseComplement(s), p)
	if len(a) != len(b) {
		t.Fatalf("set sizes differ under hash ordering")
	}
	for w := range a {
		if _, ok := b[w]; !ok {
			t.Fatal("hash-ordered minimizer set not strand-invariant")
		}
	}
}

func TestAppendExtractReusesBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	s1 := randDNA(rng, 300)
	s2 := randDNA(rng, 300)
	p := Params{K: 6, W: 4}
	buf := make([]Tuple, 0, 256)
	buf = AppendExtract(buf, s1, p)
	n1 := len(buf)
	buf = AppendExtract(buf, s2, p)
	if len(buf) <= n1 {
		t.Errorf("append did not extend: %d -> %d", n1, len(buf))
	}
	want := Extract(s2, p)
	got := buf[n1:]
	if len(got) != len(want) {
		t.Fatalf("appended %d tuples want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("idx %d: %v != %v", i, got[i], want[i])
		}
	}
}
