package dist

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/seq"
	"repro/internal/sketch"
)

func randDNA(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = seq.Code2Base[rng.Intn(4)]
	}
	return s
}

func smallParams() sketch.Params {
	return sketch.Params{K: 8, W: 4, T: 6, L: 150, Seed: 9}
}

func world(t *testing.T) (contigs, reads []seq.Record) {
	t.Helper()
	rng := rand.New(rand.NewSource(33))
	ref := randDNA(rng, 30_000)
	for pos := 0; pos+700 <= len(ref); pos += 700 {
		contigs = append(contigs, seq.Record{ID: fmt.Sprintf("c%d", len(contigs)), Seq: ref[pos : pos+700]})
	}
	for i := 0; i < 40; i++ {
		pos := rng.Intn(len(ref) - 1500)
		reads = append(reads, seq.Record{ID: fmt.Sprintf("r%d", i), Seq: ref[pos : pos+1500]})
	}
	return contigs, reads
}

func sharedMemoryResults(t *testing.T, contigs, reads []seq.Record) []core.Result {
	t.Helper()
	m, err := core.NewMapper(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	m.AddSubjectsParallel(contigs, 1)
	m.Seal()
	results, err := m.MapReads(context.Background(), reads, smallParams().L, 1)
	if err != nil {
		t.Fatal(err)
	}
	return results
}

func TestDistributedMatchesSharedMemoryForAnyP(t *testing.T) {
	contigs, reads := world(t)
	want := sharedMemoryResults(t, contigs, reads)
	for _, p := range []int{1, 2, 3, 5, 8, 16, 41} {
		out, err := Run(contigs, reads, Config{P: p, Params: smallParams()})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if !reflect.DeepEqual(out.Results, want) {
			t.Fatalf("p=%d: distributed results differ from shared-memory", p)
		}
	}
}

func TestTimelineStructure(t *testing.T) {
	contigs, reads := world(t)
	out, err := Run(contigs, reads, Config{P: 4, Params: smallParams()})
	if err != nil {
		t.Fatal(err)
	}
	tl := out.Timeline
	for _, name := range []string{"S1 load input", "S2 sketch subjects", "S3 serialize sketch", "S3 allgather sketch", "S3 merge sketch", "S4 map queries"} {
		if tl.Step(name) == nil {
			t.Errorf("missing step %q", name)
		}
	}
	if tl.Total() <= 0 {
		t.Error("zero total simulated time")
	}
	if out.TableBytes <= 0 {
		t.Error("no gathered bytes")
	}
	if out.QuerySegments != 2*len(reads) {
		t.Errorf("segments = %d want %d", out.QuerySegments, 2*len(reads))
	}
	if out.Throughput() <= 0 {
		t.Error("throughput not positive")
	}
}

func TestPartitionByBasesCoversEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	var records []seq.Record
	for i := 0; i < 57; i++ {
		records = append(records, seq.Record{ID: fmt.Sprintf("x%d", i), Seq: randDNA(rng, 1+rng.Intn(900))})
	}
	for _, p := range []int{1, 2, 5, 13, 57, 100} {
		covered := make([]bool, len(records))
		prevHi := 0
		for r := 0; r < p; r++ {
			part := partitionByBases(records, p, r)
			lo, hi := part[0], part[1]
			if lo != prevHi {
				t.Fatalf("p=%d rank %d: gap/overlap at %d (expected %d)", p, r, lo, prevHi)
			}
			for i := lo; i < hi; i++ {
				covered[i] = true
			}
			prevHi = hi
		}
		if prevHi != len(records) {
			t.Fatalf("p=%d: partition ends at %d of %d", p, prevHi, len(records))
		}
		for i, ok := range covered {
			if !ok {
				t.Fatalf("p=%d: record %d not covered", p, i)
			}
		}
	}
}

func TestPartitionByBasesRoughBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	var records []seq.Record
	var total int64
	for i := 0; i < 500; i++ {
		n := 100 + rng.Intn(400)
		records = append(records, seq.Record{Seq: randDNA(rng, n)})
		total += int64(n)
	}
	const p = 8
	for r := 0; r < p; r++ {
		part := partitionByBases(records, p, r)
		var bases int64
		for i := part[0]; i < part[1]; i++ {
			bases += int64(len(records[i].Seq))
		}
		share := float64(bases) / float64(total)
		if share < 0.08 || share > 0.18 {
			t.Errorf("rank %d holds %.1f%% of bases", r, 100*share)
		}
	}
}

func TestRunValidation(t *testing.T) {
	contigs, reads := world(t)
	if _, err := Run(contigs, reads, Config{P: 0, Params: smallParams()}); err == nil {
		t.Error("p=0 should fail")
	}
	bad := smallParams()
	bad.T = 0
	if _, err := Run(contigs, reads, Config{P: 2, Params: bad}); err == nil {
		t.Error("invalid params should fail")
	}
}

func TestRunEmptyInputs(t *testing.T) {
	out, err := Run(nil, nil, Config{P: 3, Params: smallParams()})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 0 || out.QuerySegments != 0 {
		t.Errorf("empty run produced %d results", len(out.Results))
	}
}

func TestMorePRanksThanWork(t *testing.T) {
	contigs, reads := world(t)
	out, err := Run(contigs[:2], reads[:1], Config{P: 16, Params: smallParams()})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 2 {
		t.Errorf("got %d results", len(out.Results))
	}
}

// TestPerRankPhaseSpans asserts that a run reports one root span per
// rank with child spans matching the paper's phase breakdown —
// sketch (S2), gather (S3 serialize), map (S4) — whether the caller
// supplies a tracer or not.
func TestPerRankPhaseSpans(t *testing.T) {
	contigs, reads := world(t)
	tr := obs.NewTracer()
	out, err := Run(contigs, reads, Config{P: 3, Params: smallParams(), Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if out.Trace != tr {
		t.Error("Output.Trace should be the supplied tracer")
	}
	roots := tr.Roots()
	if len(roots) != 3 {
		t.Fatalf("got %d root spans, want one per rank", len(roots))
	}
	for r, root := range roots {
		if want := fmt.Sprintf("rank%02d", r); root.Name() != want {
			t.Errorf("root %d named %q, want %q", r, root.Name(), want)
		}
		if !root.Ended() {
			t.Errorf("%s not ended", root.Name())
		}
		var names []string
		for _, c := range root.Children() {
			names = append(names, c.Name())
			if !c.Ended() {
				t.Errorf("%s/%s not ended", root.Name(), c.Name())
			}
			if c.Duration() < 0 {
				t.Errorf("%s/%s negative duration", root.Name(), c.Name())
			}
		}
		if want := []string{"sketch", "gather", "map"}; !reflect.DeepEqual(names, want) {
			t.Errorf("%s children = %v, want %v", root.Name(), names, want)
		}
	}

	// Without a caller-supplied tracer the run still traces into a
	// private one exposed on the Output.
	out2, err := Run(contigs, reads, Config{P: 2, Params: smallParams()})
	if err != nil {
		t.Fatal(err)
	}
	if out2.Trace == nil || len(out2.Trace.Roots()) != 2 {
		t.Error("run without Config.Tracer should still expose per-rank spans")
	}
}
