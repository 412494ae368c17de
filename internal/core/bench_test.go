package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/seq"
	"repro/internal/sketch"
)

func benchMapper(b *testing.B, nContigs, contigLen int) (*Mapper, []byte) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	p := sketch.Defaults()
	m, err := NewMapper(p)
	if err != nil {
		b.Fatal(err)
	}
	var contigs []seq.Record
	ref := randDNA(rng, nContigs*contigLen)
	for i := 0; i < nContigs; i++ {
		contigs = append(contigs, seq.Record{
			ID:  fmt.Sprintf("c%d", i),
			Seq: ref[i*contigLen : (i+1)*contigLen],
		})
	}
	m.AddSubjects(contigs)
	m.Seal()
	pos := rng.Intn(len(ref) - p.L)
	return m, ref[pos : pos+p.L]
}

func BenchmarkMapSegment(b *testing.B) {
	m, seg := benchMapper(b, 500, 3000)
	sess := m.NewSession()
	b.SetBytes(int64(len(seg)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.MapSegment(seg)
	}
}

func BenchmarkMapSegmentPositional(b *testing.B) {
	m, seg := benchMapper(b, 500, 3000)
	sess := m.NewSession()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.MapSegmentPositional(seg)
	}
}

func BenchmarkAddSubjects(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	var contigs []seq.Record
	var bases int64
	for i := 0; i < 100; i++ {
		n := 2000 + rng.Intn(4000)
		contigs = append(contigs, seq.Record{ID: fmt.Sprintf("c%d", i), Seq: randDNA(rng, n)})
		bases += int64(n)
	}
	b.SetBytes(bases)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := NewMapper(sketch.Defaults())
		if err != nil {
			b.Fatal(err)
		}
		m.AddSubjects(contigs)
		m.Seal()
	}
}
