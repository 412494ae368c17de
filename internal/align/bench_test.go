package align

import (
	"math/rand"
	"testing"
)

func benchPair(b *testing.B, segLen, subLen int, mutation float64) (segment, subject []byte) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	subject = randDNA(rng, subLen)
	start := (subLen - segLen) / 2
	segment = append([]byte(nil), subject[start:start+segLen]...)
	for i := range segment {
		if rng.Float64() < mutation {
			segment[i] = "ACGT"[rng.Intn(4)]
		}
	}
	return segment, subject
}

func BenchmarkLocal1kx3k(b *testing.B) {
	segment, subject := benchPair(b, 1000, 3000, 0.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Local(segment, subject, DefaultScoring())
	}
}

func BenchmarkFit1k(b *testing.B) {
	segment, subject := benchPair(b, 1000, 3000, 0.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Fit(segment, subject, DefaultScoring(), 64)
	}
}

func BenchmarkFastIdentity(b *testing.B) {
	segment, subject := benchPair(b, 1000, 20_000, 0.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FastIdentityStranded(segment, subject, DefaultScoring(), 64)
	}
}
