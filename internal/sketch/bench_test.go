package sketch

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/kmer"
)

func benchSketcher(b *testing.B) *Sketcher {
	b.Helper()
	sk, err := NewSketcher(Defaults())
	if err != nil {
		b.Fatal(err)
	}
	return sk
}

func BenchmarkHashFamily(b *testing.B) {
	hf := NewHashFamily(30, 1)
	x := kmer.Word(0x1234_5678_9abc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for t := 0; t < 30; t++ {
			_ = hf.Hash(t, x)
		}
	}
}

func BenchmarkSubjectSketch(b *testing.B) {
	sk := benchSketcher(b)
	rng := rand.New(rand.NewSource(2))
	s := randDNA(rng, 100_000) // a long contig
	b.SetBytes(int64(len(s)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.SubjectSketch(s)
	}
}

func BenchmarkQuerySketch(b *testing.B) {
	sk := benchSketcher(b)
	rng := rand.New(rand.NewSource(3))
	seg := randDNA(rng, 1000) // one end segment
	b.SetBytes(int64(len(seg)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.QuerySketch(seg)
	}
}

// benchSketches sketches n random 3 kbp contigs positionally.
func benchSketches(b *testing.B, n int) []subjectSketch {
	b.Helper()
	sk := benchSketcher(b)
	rng := rand.New(rand.NewSource(4))
	seqs := make([][]byte, n)
	for i := range seqs {
		seqs[i] = randDNA(rng, 3000)
	}
	return sketchAll(sk, seqs, true)
}

// BenchmarkBuild measures the table build — append, route, sort, lay
// out, view — at one shard and at eight (what core.Mapper.Seal and
// SealSharded pay at the end of indexing, and the simulated ranks'
// gather merge).
func BenchmarkBuild(b *testing.B) {
	sketches := benchSketches(b, 128)
	for _, p := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				freezeSketches(b, Defaults().T, sketches, 4, p, 0)
			}
		})
	}
}

func BenchmarkFrozenLookup(b *testing.B) {
	ft := freezeSketches(b, Defaults().T, benchSketches(b, 64), 1, 1, 0).Shard(0)
	rng := rand.New(rand.NewSource(5))
	words := make([]kmer.Word, 1024)
	for i := range words {
		words[i] = kmer.Word(rng.Uint64() & (1<<32 - 1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ft.Lookup(i%ft.T(), words[i%len(words)])
	}
}
