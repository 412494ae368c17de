package jem_test

import (
	"testing"

	"repro"
)

func TestMapReadsVerified(t *testing.T) {
	ds := buildSmallDataset(t)
	opts := jem.DefaultOptions()
	mapper, err := jem.NewMapper(ds.Contigs, opts)
	if err != nil {
		t.Fatal(err)
	}
	recs := samRecords(t, streamFormat(t, mapper, ds.Reads, jem.FormatSAM), ds.Reads, ds.Contigs)
	if len(recs) == 0 {
		t.Fatal("no verified mappings")
	}
	bench, err := jem.BuildBenchmark(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	plainQ := bench.Evaluate(mapAll(mapper, ds.Reads))

	mappings := make([]jem.Mapping, len(recs))
	mapped := 0
	for i, r := range recs {
		mappings[i] = r.Mapping
		if r.Mapped {
			mapped++
			if r.identity < 80 {
				t.Errorf("verified mapping below the identity floor: %+v", r)
			}
			if r.cigar == "*" {
				t.Errorf("verified mapping lacks a CIGAR: %+v", r.Mapping)
			}
			if _, span := cigarLens(t, r.cigar); span <= 0 {
				t.Errorf("verified mapping has empty target span: %+v", r.Mapping)
			}
		}
	}
	if mapped == 0 {
		t.Fatal("verification rejected everything")
	}
	verifiedQ := bench.Evaluate(mappings)
	t.Logf("plain precision %.4f, verified precision %.4f (mapped %d/%d)",
		plainQ.Precision, verifiedQ.Precision, mapped, len(recs))
	// Verification must not cost measurable precision; it exists to
	// gain it on repetitive inputs.
	if verifiedQ.Precision < plainQ.Precision-0.01 {
		t.Errorf("verification degraded precision: %.4f -> %.4f",
			plainQ.Precision, verifiedQ.Precision)
	}
}

func TestMapReadsVerifiedRejectsJunk(t *testing.T) {
	ds := buildSmallDataset(t)
	opts := jem.DefaultOptions()
	mapper, err := jem.NewMapper(ds.Contigs, opts)
	if err != nil {
		t.Fatal(err)
	}
	// A read of pure junk should be rejected by the identity floor
	// even if the sketch produced a spurious candidate.
	junk := make([]byte, 3000)
	for i := range junk {
		junk[i] = "ACGT"[(i*7+i/13)%4]
	}
	reads := []jem.Record{{ID: "junk", Seq: junk}}
	for _, r := range samRecords(t, streamFormat(t, mapper, reads, jem.FormatSAM), reads, ds.Contigs) {
		if r.Mapped {
			t.Errorf("junk read mapped at %.1f%% identity to %s", r.identity, r.ContigID)
		}
	}
}
