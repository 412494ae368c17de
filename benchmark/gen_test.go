package main

import (
	"bytes"
	"context"
	"io"
	"slices"
	"testing"

	jem "repro"
	"repro/internal/core"
	"repro/internal/truth"
)

// One seed gives one set of input bytes; another seed gives another.
func TestSeedPinsInputs(t *testing.T) {
	spec := specD10.scaled(0.02)
	digest := func(seed int64) string {
		ds, err := generate(spec, seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(ds.Contigs) == 0 || ds.reads() == 0 || len(ds.ContigAt) != len(ds.Contigs) || len(ds.ReadOff) != ds.reads()+1 {
			t.Fatalf("seed %d: %d contigs, %d intervals, %d reads, %d offsets", seed, len(ds.Contigs), len(ds.ContigAt), ds.reads(), len(ds.ReadOff))
		}
		return ds.digest()
	}
	a, again, b := digest(1), digest(1), digest(2)
	if a != again {
		t.Errorf("seed 1 gave two digests: %s and %s", a, again)
	}
	if a == b {
		t.Errorf("seeds 1 and 2 gave the same digest %s", a)
	}
}

// Contigs are cut from the reference in order, within the configured
// lengths, and the kept interval is where the bases came from.
func TestCutContigsKeepCoordinates(t *testing.T) {
	ds, err := generate(specD10.scaled(0.02), 3)
	if err != nil {
		t.Fatal(err)
	}
	prevEnd := 0
	for i, iv := range ds.ContigAt {
		n := iv.End - iv.Start
		if n != len(ds.Contigs[i].Seq) || iv.Start < prevEnd || iv.Start-prevEnd > contigMaxGap {
			t.Fatalf("contig %d: interval %d..%d, %d bases, previous contig ended at %d", i, iv.Start, iv.End, len(ds.Contigs[i].Seq), prevEnd)
		}
		if n < contigMin && i != len(ds.ContigAt)-1 {
			t.Fatalf("contig %d is %d bases, under the minimum %d", i, n, contigMin)
		}
		prevEnd = iv.End
	}
	// The sorted search for truly mapping contigs must agree with
	// checking every contig.
	for _, rd := range ds.Truth[:50] {
		for _, kind := range []core.SegmentKind{core.Prefix, core.Suffix} {
			iv := truth.SegmentInterval(rd, kind, 1000)
			var want []int
			for c, at := range ds.ContigAt {
				if at.Overlap(iv) >= 16 {
					want = append(want, c)
				}
			}
			if got := ds.trueContigs(iv, 16); !slices.Equal(got, want) {
				t.Fatalf("read %s %v: true contigs %v, brute force %v", rd.Rec.ID, kind, got, want)
			}
		}
	}
}

// d34r is generated to be the lookup-and-count regime: at equal scale
// its reads scan at least ten times the postings d10's do.
func TestRepeatRegime(t *testing.T) {
	postingsPerRead := func(spec datasetSpec, shards int) float64 {
		ds, err := generate(spec.scaled(0.1), 1)
		if err != nil {
			t.Fatal(err)
		}
		o := jem.DefaultOptions()
		o.Shards = shards
		m, err := jem.NewMapper(ds.Contigs, o)
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.Stream(context.Background(), bytes.NewReader(ds.FASTQ), io.Discard, jem.StreamOptions{})
		if err != nil || st.Reads != ds.reads() {
			t.Fatalf("%s: streamed %d of %d reads: %v", spec.Name, st.Reads, ds.reads(), err)
		}
		return float64(st.PostingsScanned) / float64(st.Reads)
	}
	d10, d34r := postingsPerRead(specD10, 0), postingsPerRead(specD34r, 8)
	t.Logf("postings/read at scale 0.1: d10 %.0f, d34r %.0f", d10, d34r)
	if d34r < 10*d10 {
		t.Errorf("d34r scans %.0f postings/read, d10 %.0f: want at least 10x", d34r, d10)
	}
}
