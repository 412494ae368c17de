package sketch

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/genome"
	"repro/internal/kmer"
)

// refTable is the map-based sketch table the builder replaced — T Go
// maps from sketch word to posting list, filled one subject at a time —
// kept as the reference the sort-built table is tested against. It
// shares nothing with the builder below kmer.Word and Posting.
type refTable struct {
	trials  []map[kmer.Word][]Posting
	entries int
}

func newRefTable(t int) *refTable {
	tb := &refTable{trials: make([]map[kmer.Word][]Posting, t)}
	for i := range tb.trials {
		tb.trials[i] = make(map[kmer.Word][]Posting)
	}
	return tb
}

// InsertPositional adds a subject's per-trial sketch words with their
// anchors (nil: all -1). Subjects are inserted one at a time, so
// checking the tail of a list suffices to collapse a word the subject
// repeats; the smallest anchor is the one kept.
func (tb *refTable) InsertPositional(subject int32, perTrial [][]kmer.Word, anchors [][]int32) {
	if len(perTrial) != len(tb.trials) {
		panic(fmt.Sprintf("reference: sketch has %d trials, table has %d", len(perTrial), len(tb.trials)))
	}
	for t, words := range perTrial {
		bin := tb.trials[t]
		for i, w := range words {
			anchor := int32(-1)
			if anchors != nil {
				anchor = anchors[t][i]
			}
			list := bin[w]
			if n := len(list); n > 0 && list[n-1].Subject == subject {
				list[n-1].Anchor = min(list[n-1].Anchor, anchor)
				continue
			}
			bin[w] = append(list, Posting{Subject: subject, Anchor: anchor})
			tb.entries++
		}
	}
}

// Lookup returns the posting list for word w in trial t (nil when
// absent).
func (tb *refTable) Lookup(t int, w kmer.Word) []Posting { return tb.trials[t][w] }

// subjectSketch is one subject's sketch, per trial; the subject id is
// its index in a []subjectSketch.
type subjectSketch struct {
	words   [][]kmer.Word
	anchors [][]int32 // nil: anchor-less
}

// appendSketch appends s's records to a as subject's, the way
// AppendSubject writes them, so hand-made sketches reach the builder.
func appendSketch(a *Appender, subject int32, s subjectSketch) {
	for t, words := range s.words {
		for i, w := range words {
			anchor := int32(-1)
			if s.anchors != nil {
				anchor = s.anchors[t][i]
			}
			a.runs[t] = append(a.runs[t], record{word: w, subject: subject, anchor: anchor})
		}
	}
}

// sketchOf reads back the records AppendSubject appends for seq.
func sketchOf(sk *Sketcher, seq []byte, positional bool) subjectSketch {
	a := NewBuilder(sk.Params().T).Appender()
	sk.AppendSubject(a, 0, seq, positional)
	s := subjectSketch{words: make([][]kmer.Word, len(a.runs)), anchors: make([][]int32, len(a.runs))}
	for t, run := range a.runs {
		for _, r := range run {
			s.words[t] = append(s.words[t], r.word)
			s.anchors[t] = append(s.anchors[t], r.anchor)
		}
	}
	return s
}

// freezeSketches builds the table of sketches through `appenders`
// appenders (subject i goes to appender i mod appenders, so every
// appender's run interleaves with the others') at the given shard and
// worker counts.
func freezeSketches(t testing.TB, trials int, sketches []subjectSketch, appenders, shards, workers int) *ShardedFrozen {
	t.Helper()
	b := NewBuilder(trials)
	as := make([]*Appender, appenders)
	for i := range as {
		as[i] = b.Appender()
	}
	for subj, s := range sketches {
		appendSketch(as[subj%appenders], int32(subj), s)
	}
	sf, err := b.Freeze(shards, workers, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sf
}

// referenceOf inserts the same sketches into the reference table.
func referenceOf(trials int, sketches []subjectSketch) *refTable {
	ref := newRefTable(trials)
	for subj, s := range sketches {
		ref.InsertPositional(int32(subj), s.words, s.anchors)
	}
	return ref
}

// assertEqualsReference checks that sf holds exactly the reference's
// lists: every ⟨trial, word⟩ list equal, in the one shard ShardOf names
// and in no other, the same number of words and postings (so nothing
// the reference lacks is present), and the neighbours of every word
// absent unless the reference has them too.
func assertEqualsReference(t testing.TB, tag string, sf *ShardedFrozen, ref *refTable) {
	t.Helper()
	if sf.Shard(0).T() != len(ref.trials) || sf.Entries() != ref.entries {
		t.Fatalf("%s: T/entries %d/%d, reference %d/%d", tag, sf.Shard(0).T(), sf.Entries(), len(ref.trials), ref.entries)
	}
	p := sf.NumShards()
	for ti, bin := range ref.trials {
		words := 0
		for sd := 0; sd < p; sd++ {
			words += len(sf.Shard(sd).trials[ti].words)
		}
		if words != len(bin) {
			t.Fatalf("%s: trial %d holds %d words, reference %d", tag, ti, words, len(bin))
		}
		for w, want := range bin {
			if got := sf.Lookup(ti, w); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: trial %d word %d: %v, reference %v", tag, ti, w, got, want)
			}
			for sd := 0; sd < p; sd++ {
				if sd != ShardOf(ti, w, p) && sf.Shard(sd).Lookup(ti, w) != nil {
					t.Fatalf("%s: trial %d word %d also answers from shard %d", tag, ti, w, sd)
				}
			}
			for _, absent := range []kmer.Word{w - 1, w + 1} {
				if _, ok := bin[absent]; !ok && sf.Lookup(ti, absent) != nil {
					t.Fatalf("%s: trial %d word %d is absent from the reference but answers", tag, ti, absent)
				}
			}
		}
	}
}

// assertListInvariant checks, on every shard, what the counting loop
// and the positional vote lean on: every posting list is non-empty and
// strictly subject-ascending — one posting per ⟨trial, word, subject⟩.
func assertListInvariant(t testing.TB, tag string, sf *ShardedFrozen) {
	t.Helper()
	for sd := 0; sd < sf.NumShards(); sd++ {
		ft := sf.Shard(sd)
		for ti := range ft.trials {
			for _, w := range ft.trials[ti].words {
				list := ft.Lookup(ti, w)
				if len(list) == 0 {
					t.Fatalf("%s: shard %d trial %d word %d has an empty list", tag, sd, ti, w)
				}
				for i := 1; i < len(list); i++ {
					if list[i-1].Subject >= list[i].Subject {
						t.Fatalf("%s: shard %d trial %d word %d: subjects not strictly ascending: %v", tag, sd, ti, w, list)
					}
				}
			}
		}
	}
}

// sketchAll sketches every sequence, positionally or anchor-less.
func sketchAll(sk *Sketcher, seqs [][]byte, positional bool) []subjectSketch {
	out := make([]subjectSketch, len(seqs))
	for i, s := range seqs {
		out[i] = sketchOf(sk, s, positional)
	}
	return out
}

// TestBuilderMatchesReference is the differential test of the table
// builder: on generated genomes and on the adversarial contig sets, for
// the positional and the anchor-less sketch, through 1 and 4 appenders
// and at P ∈ {1, 2, 8}, the sort-built table must hold exactly the
// reference's lists and satisfy the list invariant — and the payload
// bytes must not depend on how many appenders or workers built them.
func TestBuilderMatchesReference(t *testing.T) {
	p := Params{K: 8, W: 4, T: 6, L: 120, Seed: 3}
	sk, err := NewSketcher(p)
	if err != nil {
		t.Fatal(err)
	}
	g, err := genome.Generate(genome.Config{
		Length: 60_000, RepeatFraction: 0.3, RepeatUnit: 300, RepeatDivergence: 0.01,
		GapFraction: 0.02, GapUnit: 200, Chromosomes: 25, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	var genomeSeqs [][]byte
	for _, r := range g.Records {
		genomeSeqs = append(genomeSeqs, r.Seq)
	}
	rng := rand.New(rand.NewSource(13))
	unit := randDNA(rng, 37)
	dup := randDNA(rng, 900)
	inputs := map[string][][]byte{
		"genome":             genomeSeqs,
		"all-N":              {bytes.Repeat([]byte{'N'}, 500), randDNA(rng, 400), bytes.Repeat([]byte{'N'}, 30)},
		"homopolymer":        {bytes.Repeat([]byte{'A'}, 700), bytes.Repeat([]byte{'T'}, 700), bytes.Repeat([]byte{'G'}, 300)},
		"shorter than k+w-1": {randDNA(rng, p.K+p.W-2), randDNA(rng, 3), {}, randDNA(rng, 300)},
		"duplicate contigs":  {dup, randDNA(rng, 500), dup, dup},
		"one repeat unit":    {bytes.Repeat(unit, 40), randDNA(rng, 600), unit},
		"no subjects":        {},
	}
	for name, seqs := range inputs {
		for _, positional := range []bool{true, false} {
			sketches := sketchAll(sk, seqs, positional)
			ref := referenceOf(p.T, sketches)
			for _, shards := range []int{1, 2, 8} {
				tag := fmt.Sprintf("%s positional=%v P=%d", name, positional, shards)
				one := freezeSketches(t, p.T, sketches, 1, shards, 1)
				four := freezeSketches(t, p.T, sketches, 4, shards, 3)
				assertEqualsReference(t, tag+" 1 appender", one, ref)
				assertEqualsReference(t, tag+" 4 appenders", four, ref)
				assertListInvariant(t, tag, one)
				assertListInvariant(t, tag, four)
				for sd := 0; sd < shards; sd++ {
					if !bytes.Equal(one.Shard(sd).Payload(), four.Shard(sd).Payload()) {
						t.Fatalf("%s: shard %d bytes differ between 1 and 4 appenders", tag, sd)
					}
				}
			}
		}
	}
}
