// Package sketch implements the sketching machinery of JEM-mapper:
// the per-trial linear-congruential hash family, classical MinHash
// sketches, and the minimizer-based Jaccard estimator (JEM) interval
// sketch of Algorithm 1.
package sketch

import (
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/kmer"
)

// primes61 is a fixed list of 61-bit primes from which the per-trial
// modulus P_t is drawn. All exceed 4^31, so every packed k-mer rank is
// a valid input value.
var primes61 = []uint64{
	2305843009213693951, // 2^61 - 1 (Mersenne)
	2305843009213693669,
	2305843009213693613,
	2305843009213693561,
	2305843009213693549,
	2305843009213693487,
	2305843009213693381,
	2305843009213693331,
}

// HashFamily is a set of T independent hash functions of the linear
// congruential form h_t(x) = (A_t·x + B_t) mod P_t, with the constants
// generated a priori from a seeded RNG (paper §III-B implementation
// notes). The same seed reproduces the same family, which is what
// makes subject and query sketches comparable across processes.
type HashFamily struct {
	A []uint64
	B []uint64
	P []uint64
}

// NewHashFamily generates a family of T hash functions from seed.
// It panics when T is not positive; configuration errors are expected
// to be caught by parameter validation before reaching this
// constructor.
func NewHashFamily(t int, seed int64) *HashFamily {
	if t <= 0 {
		panic(fmt.Sprintf("sketch: number of trials T=%d must be positive", t))
	}
	rng := rand.New(rand.NewSource(seed))
	hf := &HashFamily{
		A: make([]uint64, t),
		B: make([]uint64, t),
		P: make([]uint64, t),
	}
	for i := 0; i < t; i++ {
		p := primes61[rng.Intn(len(primes61))]
		// A in [1, P-1], B in [0, P-1]: the standard universal-hash
		// parameter ranges.
		hf.A[i] = 1 + uint64(rng.Int63n(int64(p-1)))
		hf.B[i] = uint64(rng.Int63n(int64(p)))
		hf.P[i] = p
	}
	return hf
}

// Hash evaluates h_t(x) = (A_t·x + B_t) mod P_t.
//
//jem:hotpath
func (hf *HashFamily) Hash(t int, x kmer.Word) uint64 {
	p := hf.P[t]
	v := mulmod(hf.A[t], uint64(x), p) + hf.B[t]
	if v >= p {
		v -= p
	}
	return v
}

// mulmod computes (a*b) mod m exactly via a 128-bit intermediate.
// Requires a < m < 2^61 and b < 2^62 so that the 128-bit product's
// high word stays below m (making the division well-defined); both
// bounds hold for LCG constants and packed k-mers.
func mulmod(a, b, m uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	_, rem := bits.Div64(hi, lo, m)
	return rem
}
