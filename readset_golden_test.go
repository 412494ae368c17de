package jem_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/genome"
	"repro/internal/mashmap"
	"repro/internal/minhash"
	"repro/internal/seedchain"
	"repro/internal/seq"
	"repro/internal/serve"
	"repro/internal/simulate"
	"repro/internal/sketch"
)

var updateReadSetGoldens = flag.Bool("update", false, "re-record testdata/readset_golden.json instead of comparing against it")

const readSetGoldenPath = "testdata/readset_golden.json"

// readSetWorld is the seeded dataset every read-set path is pinned on:
// the 24 chromosomes of a repeat-bearing genome with N gaps are the
// contigs, and the reads are simulated HiFi reads sampled from them
// plus three adversarial records — a read shorter than ℓ (one
// segment), an all-N read and a read of exactly ℓ bases.
func readSetWorld(t *testing.T) (contigs, reads []seq.Record) {
	t.Helper()
	g, err := genome.Generate(genome.Config{
		Name: "readset", Length: 150_000, RepeatFraction: 0.2, RepeatDivergence: 0.02,
		GapFraction: 0.01, Chromosomes: 24, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	hifi, err := simulate.HiFi(g.Records, simulate.HiFiConfig{Coverage: 1.5, MedianLen: 3000, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	reads = simulate.Records(hifi)
	long := reads[0].Seq
	reads = append(reads,
		seq.Record{ID: "short", Seq: append([]byte(nil), long[:600]...)},
		seq.Record{ID: "all-n", Seq: bytes.Repeat([]byte("N"), 2500)},
		seq.Record{ID: "exactly-l", Seq: append([]byte(nil), long[100:1100]...)},
	)
	return g.Records, reads
}

func readSetParams() sketch.Params {
	return sketch.Params{K: 16, W: 100, T: 30, L: 1000, Seed: 1}
}

// sealedCore builds the core mapper over contigs at shard count p.
func sealedCore(t *testing.T, contigs []seq.Record, p int) *core.Mapper {
	t.Helper()
	m, err := core.NewMapper(readSetParams())
	if err != nil {
		t.Fatal(err)
	}
	m.AddSubjectsParallel(contigs, 2)
	if p > 1 {
		m.SealSharded(p, 2)
	} else {
		m.Seal()
	}
	return m
}

// resultBytes renders results canonically, one line per row.
func resultBytes(results []core.Result) []byte {
	var b bytes.Buffer
	for _, r := range results {
		fmt.Fprintf(&b, "%d\t%d\t%d\t%d\n", r.ReadIndex, r.Kind, r.Subject, r.Count)
	}
	return b.Bytes()
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// serveJSON maps reads through jem-serve's POST /v1/map?format=json
// with workers per request and returns the NDJSON body.
func serveJSON(t *testing.T, m *jem.Mapper, workers int, reads []byte) []byte {
	t.Helper()
	s := serve.New(serve.Config{WorkersPerRequest: workers})
	s.AddIndex("readset", m)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/map?format=json", bytes.NewReader(reads)))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/map?format=json: %d %s", rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

// TestReadSetGoldens pins the output of every read-set path — core
// MapReads at W ∈ {1, 4} and P ∈ {1, 8}, the three baselines, the
// simulated distributed run at p ∈ {1, 3}, the facade's Map rendered as
// TSV, Stream in FormatTSV, FormatPAF and FormatSAM, and jem-serve's
// NDJSON body — as the SHA-256 of its bytes on the seeded readSetWorld,
// plus core MapReads over every contig and a copy of it, which pins the
// tie rule: the lower contig id wins. A
// refactor of the loops that drive these paths must pass unchanged;
// re-record (go test -run TestReadSetGoldens -update) only with a
// change that is meant to move an answer.
func TestReadSetGoldens(t *testing.T) {
	contigs, reads := readSetWorld(t)
	p := readSetParams()
	ctx := context.Background()
	got := make(map[string]string)

	for _, shards := range []int{1, 8} {
		cm := sealedCore(t, contigs, shards)
		for _, w := range []int{1, 4} {
			res, err := cm.MapReads(ctx, reads, p.L, w)
			if err != nil {
				t.Fatal(err)
			}
			got[fmt.Sprintf("core/P%d/W%d", shards, w)] = sha(resultBytes(res))
		}
	}

	mm := mashmap.NewMapper(contigs, mashmap.Params{K: p.K, W: p.W, SegLen: p.L}, 2)
	mh, err := minhash.NewMapper(contigs, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	sc := seedchain.NewMapper(contigs, seedchain.Defaults(), 2)
	for _, w := range []int{1, 4} {
		got[fmt.Sprintf("mashmap/W%d", w)] = sha(resultBytes(mm.MapReads(reads, p.L, w)))
		got[fmt.Sprintf("minhash/W%d", w)] = sha(resultBytes(mh.MapReads(reads, p.L, w)))
		got[fmt.Sprintf("seedchain/W%d", w)] = sha(resultBytes(sc.MapReads(reads, p.L, w)))
	}

	for _, ranks := range []int{1, 3} {
		out, err := dist.Run(contigs, reads, dist.Config{P: ranks, Params: p, MaxParallel: 2})
		if err != nil {
			t.Fatal(err)
		}
		got[fmt.Sprintf("dist/p%d", ranks)] = sha(resultBytes(out.Results))
	}

	var fastq bytes.Buffer
	if err := seq.WriteFASTQ(&fastq, reads); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 8} {
		for _, w := range []int{1, 4} {
			opts := jem.DefaultOptions()
			opts.Shards, opts.Workers = shards, w
			m, err := jem.NewMapper(contigs, opts)
			if err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("P%d/W%d", shards, w)

			ms, err := m.Map(ctx, reads, jem.MapOptions{})
			if err != nil {
				t.Fatal(err)
			}
			var tsv bytes.Buffer
			if err := jem.WriteTSV(&tsv, ms); err != nil {
				t.Fatal(err)
			}
			got["facade/map/"+key] = sha(tsv.Bytes())

			for name, f := range map[string]jem.Format{"stream": jem.FormatTSV, "paf": jem.FormatPAF, "sam": jem.FormatSAM} {
				var out bytes.Buffer
				if _, err := m.Stream(ctx, bytes.NewReader(fastq.Bytes()), &out, jem.StreamOptions{Format: f}); err != nil {
					t.Fatal(err)
				}
				got["facade/"+name+"/"+key] = sha(out.Bytes())
			}

			got["serve/json/"+key] = sha(serveJSON(t, m, w, fastq.Bytes()))
		}
	}

	// Every contig again under a higher id: a trial that hits a contig
	// hits its copy too, so every mapped row is a tie the rule breaks.
	tied := slices.Clip(contigs)
	for _, c := range contigs {
		tied = append(tied, seq.Record{ID: c.ID + "-copy", Seq: c.Seq})
	}
	res, err := sealedCore(t, tied, 8).MapReads(ctx, reads, p.L, 2)
	if err != nil {
		t.Fatal(err)
	}
	got["tie-heavy/core/P8"] = sha(resultBytes(res))

	if *updateReadSetGoldens {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(readSetGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(readSetGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(readSetGoldenPath)
	if err != nil {
		t.Fatalf("%v (record with -update)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(want)+len(got))
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != want[k] {
			t.Errorf("%s: sha256 %s, golden %s", k, got[k], want[k])
		}
	}
}
