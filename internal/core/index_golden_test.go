package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/genome"
	"repro/internal/minimizer"
	"repro/internal/seq"
	"repro/internal/sketch"
)

var updateGoldens = flag.Bool("update", false, "re-record testdata/index_golden.json instead of comparing against it")

// goldenContigs is the seeded contig set the index goldens are built
// from: a repeat-bearing genome with N gaps, cut into 40 records.
func goldenContigs(t *testing.T) []seq.Record {
	t.Helper()
	g, err := genome.Generate(genome.Config{
		Name: "golden", Length: 240_000, RepeatFraction: 0.2, RepeatDivergence: 0.02,
		GapFraction: 0.02, Chromosomes: 40, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g.Records
}

// buildAnchorless indexes contigs the way the simulated-rank driver
// does: two "ranks" each append the anchor-less sketches of their half
// of the contigs to one sketch.Builder, whose frozen table becomes a
// mapper through NewSealed.
func buildAnchorless(t *testing.T, contigs []seq.Record, p sketch.Params, shards int) *Mapper {
	t.Helper()
	sk, err := sketch.NewSketcher(p)
	if err != nil {
		t.Fatal(err)
	}
	b := sketch.NewBuilder(p.T)
	half := len(contigs) / 2
	for _, part := range [][2]int{{0, half}, {half, len(contigs)}} {
		a := b.Appender()
		for i := part[0]; i < part[1]; i++ {
			sk.AppendSubject(a, int32(i), contigs[i].Seq, false)
		}
	}
	sf, err := b.Freeze(shards, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewSealed(p, SubjectsOf(contigs), sf)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestIndexGoldenBytes pins the JEMIDX06 bytes: for seeded contigs,
// default and non-default sketch parameters, the positional build and
// the anchor-less one, at P ∈ {1, 2, 8}, the SHA-256 of the written
// index must equal the committed golden. The goldens were recorded
// from the map-based table this builder replaced; any change to the
// sort order, the duplicate rule, the bucket directory or the payload
// layout moves a hash. Re-record (go test -run TestIndexGoldenBytes
// -update) only together with a format bump.
func TestIndexGoldenBytes(t *testing.T) {
	contigs := goldenContigs(t)
	paramSets := map[string]sketch.Params{
		"default": sketch.Defaults(),
		"k12w20":  {K: 12, W: 20, T: 8, L: 400, Seed: 5, Order: minimizer.OrderHash},
	}
	got := make(map[string]string)
	for pname, p := range paramSets {
		for _, shards := range []int{1, 2, 8} {
			positional, err := NewMapper(p)
			if err != nil {
				t.Fatal(err)
			}
			// Workers alternate with P so both add paths are pinned.
			if shards == 2 {
				positional.AddSubjectsParallel(contigs, 1)
			} else {
				positional.AddSubjectsParallel(contigs, 3)
			}
			positional.SealSharded(shards, 2)
			for kind, m := range map[string]*Mapper{
				"positional": positional,
				"anchorless": buildAnchorless(t, contigs, p, shards),
			} {
				var buf bytes.Buffer
				if err := m.writeIndex(&buf); err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(buf.Bytes())
				got[fmt.Sprintf("%s/%s/P%d", pname, kind, shards)] = hex.EncodeToString(sum[:])
			}
		}
	}
	path := filepath.Join("testdata", "index_golden.json")
	if *updateGoldens {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file holds %d entries, the test builds %d", len(want), len(got))
	}
	for name, sum := range got {
		if want[name] != sum {
			t.Errorf("%s: index sha256 %s, golden %s", name, sum, want[name])
		}
	}
}
