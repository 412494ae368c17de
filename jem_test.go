package jem_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro"
)

func TestOptionsValidate(t *testing.T) {
	if err := jem.DefaultOptions().Validate(); err != nil {
		t.Errorf("defaults invalid: %v", err)
	}
	bad := jem.DefaultOptions()
	bad.Trials = 0
	if err := bad.Validate(); err == nil {
		t.Error("T=0 should be invalid")
	}
	bad = jem.DefaultOptions()
	bad.SegmentLen = 2
	if err := bad.Validate(); err == nil {
		t.Error("l<k should be invalid")
	}
}

func TestNewMapperRejectsBadOptions(t *testing.T) {
	if _, err := jem.NewMapper(nil, jem.Options{}); err == nil {
		t.Error("zero options should be rejected")
	}
}

func TestSynthesizeValidation(t *testing.T) {
	if _, err := jem.Synthesize(jem.SynthesisConfig{GenomeLength: 0}); err == nil {
		t.Error("zero-length genome should fail")
	}
	if _, err := jem.Synthesize(jem.SynthesisConfig{GenomeLength: 1000, RepeatFraction: 2}); err == nil {
		t.Error("absurd repeat fraction should fail")
	}
}

func TestSynthesizeDiploid(t *testing.T) {
	ds, err := jem.Synthesize(jem.SynthesisConfig{
		Name:           "diploid",
		GenomeLength:   200_000,
		Heterozygosity: 0.003,
		HiFiCoverage:   6,
		Seed:           88,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Contigs) == 0 || len(ds.Reads) == 0 {
		t.Fatal("empty diploid dataset")
	}
	// Reads from both haplotypes must be present.
	hap2 := false
	for _, r := range ds.Reads {
		if len(r.ID) >= 5 && r.ID[:5] == "hifi2" {
			hap2 = true
			break
		}
	}
	if !hap2 {
		t.Error("no haplotype-2 reads")
	}
	// Mapping quality must survive heterozygosity (bubbles popped in
	// assembly; 0.3% SNPs barely dent sketches).
	opts := jem.DefaultOptions()
	mapper, err := jem.NewMapper(ds.Contigs, opts)
	if err != nil {
		t.Fatal(err)
	}
	bench, err := jem.BuildBenchmark(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	q := bench.Evaluate(mapAll(mapper, ds.Reads))
	t.Logf("diploid dataset: %d contigs, %d reads, precision %.4f recall %.4f",
		len(ds.Contigs), len(ds.Reads), q.Precision, q.Recall)
	if q.Precision < 0.85 || q.Recall < 0.8 {
		t.Errorf("diploid quality degraded: p=%.4f r=%.4f", q.Precision, q.Recall)
	}
}

func TestDistributedMatchesShared(t *testing.T) {
	ds := buildSmallDataset(t)
	opts := jem.DefaultOptions()
	mapper, err := jem.NewMapper(ds.Contigs, opts)
	if err != nil {
		t.Fatal(err)
	}
	shared := mapAll(mapper, ds.Reads)
	for _, p := range []int{1, 3, 8} {
		out, err := jem.MapDistributed(ds.Contigs, ds.Reads, p, opts)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if !reflect.DeepEqual(out.Mappings, shared) {
			t.Fatalf("p=%d: distributed mappings differ", p)
		}
		if out.Total <= 0 {
			t.Errorf("p=%d: zero simulated time", p)
		}
		if len(out.Steps) == 0 {
			t.Errorf("p=%d: no steps", p)
		}
	}
}

func TestDistributedStepStructure(t *testing.T) {
	ds := buildSmallDataset(t)
	out, err := jem.MapDistributed(ds.Contigs, ds.Reads, 4, jem.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	wantSteps := []string{
		"S1 load input", "S2 sketch subjects", "S3 serialize sketch",
		"S3 allgather sketch", "S3 merge sketch", "S4 map queries",
	}
	if len(out.Steps) != len(wantSteps) {
		t.Fatalf("got %d steps: %+v", len(out.Steps), out.Steps)
	}
	commSeen := false
	for i, st := range out.Steps {
		if st.Name != wantSteps[i] {
			t.Errorf("step %d = %q want %q", i, st.Name, wantSteps[i])
		}
		if st.Communication {
			commSeen = true
			if st.Name != "S3 allgather sketch" {
				t.Errorf("unexpected communication step %q", st.Name)
			}
		}
	}
	if !commSeen {
		t.Error("no communication step recorded")
	}
	if out.CommFraction <= 0 || out.CommFraction >= 1 {
		t.Errorf("comm fraction %v", out.CommFraction)
	}
	if out.Throughput <= 0 {
		t.Error("throughput not positive")
	}
}

func TestBaselinesProduceQualityMappings(t *testing.T) {
	ds := buildSmallDataset(t)
	opts := jem.DefaultOptions()
	bench, err := jem.BuildBenchmark(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	mash := jem.NewMashmapMapper(ds.Contigs, opts)
	mq := bench.Evaluate(mash.MapReads(ds.Reads))
	if mq.Precision < 0.9 || mq.Recall < 0.8 {
		t.Errorf("mashmap baseline quality p=%.3f r=%.3f", mq.Precision, mq.Recall)
	}
	mh, err := jem.NewMinHashMapper(ds.Contigs, opts)
	if err != nil {
		t.Fatal(err)
	}
	hq := bench.Evaluate(mh.MapReads(ds.Reads))
	if hq.Precision < 0.7 {
		t.Errorf("minhash baseline precision %.3f", hq.Precision)
	}
	chain := jem.NewSeedChainMapper(ds.Contigs, opts)
	cq := bench.Evaluate(chain.MapReads(ds.Reads))
	if cq.Precision < 0.9 || cq.Recall < 0.8 {
		t.Errorf("seed-chain baseline quality p=%.3f r=%.3f", cq.Precision, cq.Recall)
	}
}

func TestWriteTSV(t *testing.T) {
	mappings := []jem.Mapping{
		{ReadID: "r1", End: jem.PrefixEnd, Mapped: true, ContigID: "c9", SharedTrials: 12},
		{ReadID: "r1", End: jem.SuffixEnd, Mapped: false},
	}
	var buf bytes.Buffer
	if err := jem.WriteTSV(&buf, mappings); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines", len(lines))
	}
	if lines[0] != "read_id\tend\tcontig_id\tshared_trials" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "r1\tprefix\tc9\t12" {
		t.Errorf("row = %q", lines[1])
	}
	if lines[2] != "r1\tsuffix\t*\t0" {
		t.Errorf("unmapped row = %q", lines[2])
	}
}

func TestScaffoldsFromMappings(t *testing.T) {
	ds := buildSmallDataset(t)
	opts := jem.DefaultOptions()
	mapper, err := jem.NewMapper(ds.Contigs, opts)
	if err != nil {
		t.Fatal(err)
	}
	mappings := mapAll(mapper, ds.Reads)
	scaffolds := jem.BuildScaffolds(mappings, len(ds.Contigs), 1)
	if len(scaffolds) == 0 {
		t.Fatal("no scaffolds built")
	}
	seen := map[int]bool{}
	for _, sc := range scaffolds {
		if len(sc.Contigs) < 2 {
			t.Errorf("chain of length %d", len(sc.Contigs))
		}
		for _, c := range sc.Contigs {
			if c < 0 || c >= len(ds.Contigs) {
				t.Fatalf("contig index %d out of range", c)
			}
			if seen[c] {
				t.Fatalf("contig %d in two scaffolds", c)
			}
			seen[c] = true
		}
	}
}

func TestFacadeErrorPaths(t *testing.T) {
	// Open on a garbage index file.
	garbage := filepath.Join(t.TempDir(), "garbage.jem")
	if err := os.WriteFile(garbage, []byte("not an index"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := jem.Open(jem.OpenOptions{IndexPath: garbage}); err == nil {
		t.Error("garbage index should fail")
	}
	// MapDistributed with invalid options / rank count.
	ds := buildSmallDataset(t)
	bad := jem.DefaultOptions()
	bad.Trials = 0
	if _, err := jem.MapDistributed(ds.Contigs, ds.Reads, 2, bad); err == nil {
		t.Error("invalid options should fail")
	}
	if _, err := jem.MapDistributed(ds.Contigs, ds.Reads, 0, jem.DefaultOptions()); err == nil {
		t.Error("p=0 should fail")
	}
	// NewMinHashMapper with invalid options.
	if _, err := jem.NewMinHashMapper(nil, bad); err == nil {
		t.Error("invalid minhash options should fail")
	}
	// BuildBenchmark with k=0.
	badK := jem.DefaultOptions()
	badK.K = 0
	if _, err := jem.BuildBenchmark(ds, badK); err == nil {
		t.Error("k=0 benchmark should fail")
	}
}

func TestGroundTruthRoundTrip(t *testing.T) {
	ds := buildSmallDataset(t)
	truth, err := jem.GroundTruthReads(ds.Reads)
	if err != nil {
		t.Fatal(err)
	}
	if len(truth) != len(ds.Truth) {
		t.Fatalf("lengths differ")
	}
	for i := range truth {
		if truth[i].Start != ds.Truth[i].Start || truth[i].End != ds.Truth[i].End ||
			truth[i].Chrom != ds.Truth[i].Chrom || truth[i].Strand != ds.Truth[i].Strand {
			t.Fatalf("read %d coords differ", i)
		}
	}
	if _, err := jem.GroundTruthReads([]jem.Record{{ID: "x", Desc: "no coords"}}); err == nil {
		t.Error("missing coords should fail")
	}
}

func TestPercentIdentityOfMappedPairs(t *testing.T) {
	ds := buildSmallDataset(t)
	opts := jem.DefaultOptions()
	mapper, err := jem.NewMapper(ds.Contigs, opts)
	if err != nil {
		t.Fatal(err)
	}
	mappings := mapAll(mapper, ds.Reads)
	checked := 0
	for _, m := range mappings {
		if !m.Mapped || checked >= 5 {
			continue
		}
		read := ds.Reads[m.ReadIndex].Seq
		var seg []byte
		if m.End == jem.PrefixEnd {
			seg = read[:minInt(opts.SegmentLen, len(read))]
		} else {
			seg = read[maxInt(0, len(read)-opts.SegmentLen):]
		}
		id := jem.PercentIdentity(seg, ds.Contigs[m.Contig].Seq)
		if id < 80 {
			t.Errorf("mapped pair identity %.1f%% suspiciously low", id)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no mapped pairs to check")
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
