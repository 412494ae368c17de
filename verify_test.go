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
	vms := verifiedAll(mapper, ds.Reads, jem.VerifyOptions{})
	if len(vms) == 0 {
		t.Fatal("no verified mappings")
	}
	bench, err := jem.BuildBenchmark(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	plainQ := bench.Evaluate(mapAll(mapper, ds.Reads))

	mappings := make([]jem.Mapping, len(vms))
	mapped := 0
	for i, vm := range vms {
		mappings[i] = vm.Mapping
		if vm.Mapped {
			mapped++
			if vm.Identity < 80 {
				t.Errorf("verified mapping below MinIdentity: %+v", vm)
			}
			if vm.CIGAR == "" {
				t.Errorf("verified mapping lacks a CIGAR: %+v", vm.Mapping)
			}
			if vm.TargetEnd <= vm.TargetStart {
				t.Errorf("verified mapping has empty target span: %+v", vm.Mapping)
			}
		}
	}
	if mapped == 0 {
		t.Fatal("verification rejected everything")
	}
	verifiedQ := bench.Evaluate(mappings)
	t.Logf("plain precision %.4f, verified precision %.4f (mapped %d/%d)",
		plainQ.Precision, verifiedQ.Precision, mapped, len(vms))
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
	vms := verifiedAll(mapper, []jem.Record{{ID: "junk", Seq: junk}}, jem.VerifyOptions{MinIdentity: 90})
	for _, vm := range vms {
		if vm.Mapped {
			t.Errorf("junk read mapped at %.1f%% identity to %s", vm.Identity, vm.ContigID)
		}
	}
}
