package jem_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/sketch"
)

// TestSealedFacadeMatchesUnsealedCoreTSV is the end-to-end guarantee
// that the facade adds nothing to the mapping: a facade mapper (built
// by parallel workers, streamed) and a plain core mapper over the same
// synthetic contigs (one appender, sealed by hand, MapReads) must emit
// byte-identical TSV for the same reads. The core mapper used to be
// left unsealed, serving from the mutable hash table; what that table
// held is now pinned by sketch.TestBuilderMatchesReference and
// core.TestSealedMapperMatchesMutable.
func TestSealedFacadeMatchesUnsealedCoreTSV(t *testing.T) {
	ds := buildSmallDataset(t)
	opts := jem.DefaultOptions()

	mapper, err := jem.NewMapper(ds.Contigs, opts)
	if err != nil {
		t.Fatal(err)
	}
	var sealedTSV bytes.Buffer
	if err := jem.WriteTSV(&sealedTSV, mapAll(mapper, ds.Reads)); err != nil {
		t.Fatal(err)
	}

	// Reference: a core mapper driven directly, rendered with the same
	// row format.
	p := sketch.Params{K: opts.K, W: opts.W, T: opts.Trials, L: opts.SegmentLen, Seed: opts.Seed}
	cm, err := core.NewMapper(p)
	if err != nil {
		t.Fatal(err)
	}
	cm.AddSubjectsParallel(ds.Contigs, 1)
	cm.Seal()
	var refTSV bytes.Buffer
	fmt.Fprintln(&refTSV, "read_id\tend\tcontig_id\tshared_trials")
	results, err := cm.MapReads(context.Background(), ds.Reads, opts.SegmentLen, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		end := jem.PrefixEnd
		if r.Kind == core.Suffix {
			end = jem.SuffixEnd
		}
		contig, trials := "*", "0"
		if r.Mapped() {
			contig = cm.Subject(r.Subject).Name
			trials = fmt.Sprintf("%d", r.Count)
		}
		fmt.Fprintf(&refTSV, "%s\t%s\t%s\t%s\n", ds.Reads[r.ReadIndex].ID, end, contig, trials)
	}

	if !bytes.Equal(sealedTSV.Bytes(), refTSV.Bytes()) {
		t.Error("facade TSV differs from core TSV")
	}
}
