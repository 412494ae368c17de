package minimizer

import (
	"math/rand"
	"testing"
)

func benchSeq(n int) []byte {
	rng := rand.New(rand.NewSource(1))
	return randDNA(rng, n)
}

func BenchmarkExtractLex(b *testing.B) {
	s := benchSeq(1 << 20)
	p := Params{K: 16, W: 100}
	b.SetBytes(int64(len(s)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Extract(s, p)
	}
}

func BenchmarkExtractHash(b *testing.B) {
	s := benchSeq(1 << 20)
	p := Params{K: 16, W: 100, Order: OrderHash}
	b.SetBytes(int64(len(s)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Extract(s, p)
	}
}

func BenchmarkExtractSmallWindow(b *testing.B) {
	s := benchSeq(1 << 20)
	p := Params{K: 16, W: 10}
	b.SetBytes(int64(len(s)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Extract(s, p)
	}
}

// BenchmarkExtractSegment winnows one query end segment per call, the
// shape of the query path (ℓ=1000, k=16, w=100), into a reused buffer:
// per-call set-up and allocations show here, which the 1 MB benchmarks
// amortize away.
func BenchmarkExtractSegment(b *testing.B) {
	s := benchSeq(1000)
	p := Params{K: 16, W: 100}
	var buf []Tuple
	b.SetBytes(int64(len(s)))
	b.ReportAllocs()
	for b.Loop() {
		buf = AppendExtract(buf[:0], s, p)
	}
}
