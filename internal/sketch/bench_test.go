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

// BenchmarkSubjectSketch measures AppendSubject on a long contig into
// a warm appender whose runs are emptied between subjects.
func BenchmarkSubjectSketch(b *testing.B) {
	sk := benchSketcher(b)
	rng := rand.New(rand.NewSource(2))
	s := randDNA(rng, 100_000) // a long contig
	a := NewBuilder(Defaults().T).Appender()
	b.SetBytes(int64(len(s)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for t := range a.runs {
			a.runs[t] = a.runs[t][:0]
		}
		sk.AppendSubject(a, 0, s, true)
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

// benchContigs draws n random 3 kbp contigs.
func benchContigs(n int) [][]byte {
	rng := rand.New(rand.NewSource(4))
	seqs := make([][]byte, n)
	for i := range seqs {
		seqs[i] = randDNA(rng, 3000)
	}
	return seqs
}

// BenchmarkBuild measures the table build from bases — AppendSubject
// through four appenders, then route, sort, lay out, view — at one
// shard and at eight (what core.AddSubjectsParallel and Seal or
// SealSharded pay together).
func BenchmarkBuild(b *testing.B) {
	sk := benchSketcher(b)
	seqs := benchContigs(128)
	for _, p := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				build := NewBuilder(Defaults().T)
				as := []*Appender{build.Appender(), build.Appender(), build.Appender(), build.Appender()}
				for subj, s := range seqs {
					sk.AppendSubject(as[subj%len(as)], int32(subj), s, true)
				}
				if _, err := build.Freeze(p, 0, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFrozenLookup(b *testing.B) {
	ft := freezeSketches(b, Defaults().T, sketchAll(benchSketcher(b), benchContigs(64), true), 1, 1, 0).Shard(0)
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
