package jem_test

import (
	"strconv"
	"strings"
	"testing"

	"repro"
	"repro/internal/truth"
)

func TestMapReadsPositionalAndPAF(t *testing.T) {
	ds := buildSmallDataset(t)
	opts := jem.DefaultOptions()
	mapper, err := jem.NewMapper(ds.Contigs, opts)
	if err != nil {
		t.Fatal(err)
	}
	pms := positionalAll(mapper, ds.Reads)
	if len(pms) == 0 {
		t.Fatal("no positional mappings")
	}
	// Positional best hits agree with the plain path.
	plain := mapAll(mapper, ds.Reads)
	if len(plain) != len(pms) {
		t.Fatalf("lengths differ: %d vs %d", len(plain), len(pms))
	}
	strands := map[byte]int{}
	for i := range pms {
		if pms[i].Mapping != plain[i] {
			t.Fatalf("mapping %d differs: %+v vs %+v", i, pms[i].Mapping, plain[i])
		}
		if pms[i].QueryEnd <= pms[i].QueryStart {
			t.Fatalf("bad query span %+v", pms[i])
		}
		if pms[i].Mapped && pms[i].TargetStart >= 0 {
			if pms[i].TargetEnd <= pms[i].TargetStart {
				t.Fatalf("bad target span %+v", pms[i])
			}
			if pms[i].TargetEnd > len(ds.Contigs[pms[i].Contig].Seq) {
				t.Fatalf("target span overruns contig: %+v", pms[i])
			}
			strands[pms[i].Strand]++
		}
	}
	// Reads are sampled from both strands, so both orientations must
	// be detected, and '?' should be rare.
	if strands['+'] == 0 || strands['-'] == 0 {
		t.Errorf("strand estimates skewed: %v", strands)
	}
	if strands['?'] > (strands['+']+strands['-'])/10 {
		t.Errorf("too many unknown strands: %v", strands)
	}

	paf := streamFormat(t, mapper, ds.Reads, jem.FormatPAF)
	lines := strings.Split(strings.TrimSpace(string(paf)), "\n")
	if len(lines) < len(pms)/2 {
		t.Fatalf("only %d PAF rows for %d mappings", len(lines), len(pms))
	}
	for _, line := range lines[:10] {
		fields := strings.Split(line, "\t")
		if len(fields) != 13 {
			t.Fatalf("PAF row has %d fields: %q", len(fields), line)
		}
		qlen, _ := strconv.Atoi(fields[1])
		qstart, _ := strconv.Atoi(fields[2])
		qend, _ := strconv.Atoi(fields[3])
		if qstart < 0 || qend > qlen || qstart >= qend {
			t.Errorf("bad query coords: %q", line)
		}
		if fields[4] != "+" && fields[4] != "-" {
			t.Errorf("bad strand: %q", line)
		}
		tlen, _ := strconv.Atoi(fields[6])
		tstart, _ := strconv.Atoi(fields[7])
		tend, _ := strconv.Atoi(fields[8])
		if tstart < 0 || tend > tlen || tstart >= tend {
			t.Errorf("bad target coords: %q", line)
		}
		mapq, _ := strconv.Atoi(fields[11])
		if mapq < 0 || mapq > 60 {
			t.Errorf("bad mapq: %q", line)
		}
		if !strings.HasPrefix(fields[12], "jm:i:") {
			t.Errorf("missing jm tag: %q", line)
		}
	}
}

func TestBuildScaffoldsOrientedFull(t *testing.T) {
	ds := buildSmallDataset(t)
	opts := jem.DefaultOptions()
	mapper, err := jem.NewMapper(ds.Contigs, opts)
	if err != nil {
		t.Fatal(err)
	}
	pms := positionalAll(mapper, ds.Reads)
	scaffolds, _ := jem.BuildScaffoldsOrientedFull(pms, ds.Reads, ds.Contigs, 1)
	if len(scaffolds) == 0 {
		t.Fatal("no oriented scaffolds")
	}
	seen := map[int]bool{}
	totalGapMag := 0
	joins := 0
	for _, sc := range scaffolds {
		if len(sc.Contigs) < 2 {
			t.Fatalf("chain too short: %+v", sc)
		}
		if len(sc.Reversed) != len(sc.Contigs) || len(sc.Gaps) != len(sc.Contigs) {
			t.Fatalf("ragged scaffold: %+v", sc)
		}
		if sc.Gaps[0] != 0 {
			t.Errorf("first gap must be 0: %+v", sc)
		}
		for i, c := range sc.Contigs {
			if c < 0 || c >= len(ds.Contigs) {
				t.Fatalf("contig %d out of range", c)
			}
			if seen[c] {
				t.Fatalf("contig %d in two scaffolds", c)
			}
			seen[c] = true
			if i > 0 {
				totalGapMag += abs(sc.Gaps[i])
				joins++
			}
		}
	}
	if joins == 0 {
		t.Fatal("no joins")
	}
	// Adjacent contigs from a contiguous assembly should have small
	// estimated gaps on average (well under a read length).
	if avg := totalGapMag / joins; avg > 8000 {
		t.Errorf("mean |gap| estimate %d implausibly large", avg)
	}
}

func TestStrandInferenceMatchesGroundTruth(t *testing.T) {
	// The offset-vote strand estimate must agree with the truth:
	// mapping strand = read sampling strand XOR contig placement
	// strand. Checked over the true-positive mappings.
	ds := buildSmallDataset(t)
	opts := jem.DefaultOptions()
	mapper, err := jem.NewMapper(ds.Contigs, opts)
	if err != nil {
		t.Fatal(err)
	}
	bench, err := truth.Build(ds.Chromosomes, ds.Contigs, ds.Truth, opts.SegmentLen, opts.K, truth.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pms := positionalAll(mapper, ds.Reads)
	agree, total := 0, 0
	for _, pm := range pms {
		if !pm.Mapped || pm.TargetStart < 0 || (pm.Strand != '+' && pm.Strand != '-') {
			continue
		}
		placement := bench.ContigIntervals[pm.Contig]
		if placement.Votes == 0 {
			continue
		}
		readRev := ds.Truth[pm.ReadIndex].Strand == '-'
		wantRev := readRev != placement.Reverse
		total++
		if (pm.Strand == '-') == wantRev {
			agree++
		}
	}
	if total < 50 {
		t.Fatalf("only %d strand-checkable mappings", total)
	}
	t.Logf("strand agreement: %d/%d", agree, total)
	if agree*100 < total*95 {
		t.Errorf("strand inference agreed on only %d/%d mappings", agree, total)
	}
}

func TestHybridWorkflowImprovesContiguity(t *testing.T) {
	// The paper's whole motivation: long reads mapped onto a
	// fragmented short-read assembly should chain contigs into
	// scaffolds with better contiguity (N50) than the input contigs.
	ds, err := jem.Synthesize(jem.SynthesisConfig{
		Name:           "hybrid",
		GenomeLength:   600_000,
		RepeatFraction: 0.20, // fragment the assembly
		HiFiCoverage:   10,
		Seed:           55,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := jem.DefaultOptions()
	mapper, err := jem.NewMapper(ds.Contigs, opts)
	if err != nil {
		t.Fatal(err)
	}
	mappings := mapAll(mapper, ds.Reads)
	scaffolds := jem.BuildScaffolds(mappings, len(ds.Contigs), 2)

	n50 := func(lens []int) int {
		var total int64
		for _, l := range lens {
			total += int64(l)
		}
		cp := append([]int(nil), lens...)
		for i := 1; i < len(cp); i++ {
			for j := i; j > 0 && cp[j] > cp[j-1]; j-- {
				cp[j], cp[j-1] = cp[j-1], cp[j]
			}
		}
		var acc int64
		for _, l := range cp {
			acc += int64(l)
			if acc*2 >= total {
				return l
			}
		}
		return 0
	}
	var contigLens []int
	for i := range ds.Contigs {
		contigLens = append(contigLens, len(ds.Contigs[i].Seq))
	}
	inChain := map[int]bool{}
	var unitLens []int
	for _, sc := range scaffolds {
		span := 0
		for _, c := range sc.Contigs {
			span += len(ds.Contigs[c].Seq)
			inChain[c] = true
		}
		unitLens = append(unitLens, span)
	}
	for i := range ds.Contigs {
		if !inChain[i] {
			unitLens = append(unitLens, len(ds.Contigs[i].Seq))
		}
	}
	before, after := n50(contigLens), n50(unitLens)
	t.Logf("contig N50 %d -> scaffold N50 %d (%d scaffolds)", before, after, len(scaffolds))
	if after <= before {
		t.Errorf("scaffolding did not improve N50: %d -> %d", before, after)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestPositionalTargetWindowsAreAccurate(t *testing.T) {
	// For segments cut directly from contigs, the estimated window
	// must overlap the true cut site.
	ds := buildSmallDataset(t)
	opts := jem.DefaultOptions()
	mapper, err := jem.NewMapper(ds.Contigs, opts)
	if err != nil {
		t.Fatal(err)
	}
	checked, good := 0, 0
	for ci := range ds.Contigs {
		contig := ds.Contigs[ci].Seq
		if len(contig) < 3*opts.SegmentLen {
			continue
		}
		cut := len(contig) / 2
		seg := contig[cut : cut+opts.SegmentLen]
		read := jem.Record{ID: "probe", Seq: seg}
		pms := positionalAll(mapper, []jem.Record{read})
		if len(pms) != 1 || !pms[0].Mapped || pms[0].Contig != ci || pms[0].TargetStart < 0 {
			continue
		}
		checked++
		// Window [TargetStart, TargetEnd) should overlap [cut, cut+ℓ).
		if pms[0].TargetStart < cut+opts.SegmentLen && pms[0].TargetEnd > cut {
			good++
		}
		if checked >= 20 {
			break
		}
	}
	if checked < 5 {
		t.Skip("not enough long contigs to probe")
	}
	if good < checked*8/10 {
		t.Errorf("only %d/%d positional windows overlap the true site", good, checked)
	}
}
