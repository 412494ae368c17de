package jem_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"repro"
	"repro/internal/obs"
)

// TestMapStreamStatsMatchRegistry pins the single-source-of-truth
// contract: the Stats MapStream returns must equal the movement of
// the mapper's obs.Registry instruments — there is no parallel
// bookkeeping left to drift.
func TestMapStreamStatsMatchRegistry(t *testing.T) {
	ds := buildSmallDataset(t)
	mapper, err := jem.NewMapper(ds.Contigs, jem.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var reads bytes.Buffer
	if err := writeFASTQ(&reads, ds.Reads); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	stats, err := streamAll(mapper, &reads, &out)
	if err != nil {
		t.Fatal(err)
	}

	snap := mapper.Metrics().Snapshot()
	intVals := map[string]int64{
		"jem_stream_reads_total":           int64(stats.Reads),
		"jem_stream_segments_total":        int64(stats.Segments),
		"jem_stream_segments_mapped_total": int64(stats.Mapped),
		"jem_core_postings_scanned_total":  stats.PostingsScanned,
	}
	for name, want := range intVals {
		if got := int64(snap[name]); got != want {
			t.Errorf("registry %s = %d, stats say %d", name, got, want)
		}
	}
	wallVals := map[string]float64{
		"jem_stream_read_wall_seconds":  stats.ReadWall.Seconds(),
		"jem_stream_map_wall_seconds":   stats.MapWall.Seconds(),
		"jem_stream_write_wall_seconds": stats.WriteWall.Seconds(),
	}
	for name, want := range wallVals {
		if got := snap[name]; math.Abs(got-want) > 1e-6 {
			t.Errorf("registry %s = %v, stats say %v", name, got, want)
		}
	}

	// A second run on the same mapper accumulates in the registry but
	// Stats stays per-run (snapshot-diff semantics).
	var reads2, out2 bytes.Buffer
	if err := writeFASTQ(&reads2, ds.Reads); err != nil {
		t.Fatal(err)
	}
	stats2, err := streamAll(mapper, &reads2, &out2)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Reads != len(ds.Reads) {
		t.Errorf("second run Reads = %d, want %d (per-run, not cumulative)", stats2.Reads, len(ds.Reads))
	}
	snap2 := mapper.Metrics().Snapshot()
	if got, want := int64(snap2["jem_stream_reads_total"]), int64(2*len(ds.Reads)); got != want {
		t.Errorf("registry reads after two runs = %d, want %d (cumulative)", got, want)
	}
}

// TestMapStreamServedLive drives the acceptance path end to end in
// process: serve the mapper's registry, run a streamed mapping, then
// scrape /metrics, /statusz and the pprof index while the server
// is up.
func TestMapStreamServedLive(t *testing.T) {
	ds := buildSmallDataset(t)
	reg := obs.NewRegistry()
	opts := jem.DefaultOptions()
	opts.Metrics = reg
	mapper, err := jem.NewMapper(ds.Contigs, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := obs.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var reads, out bytes.Buffer
	if err := writeFASTQ(&reads, ds.Reads); err != nil {
		t.Fatal(err)
	}
	stats, err := streamAll(mapper, &reads, &out)
	if err != nil {
		t.Fatal(err)
	}

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(srv.URL() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}
	metrics := get("/metrics")
	for _, want := range []string{
		"jem_stream_reads_total", "jem_core_postings_scanned_total",
		"jem_stream_map_wall_seconds",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	if !strings.Contains(get("/debug/pprof/"), "profile") {
		t.Error("/debug/pprof/ index missing the CPU profile link")
	}
	if !strings.Contains(get("/statusz"), "index.build") {
		t.Error("/statusz missing the index.build span")
	}
	if stats.Segments == 0 {
		t.Error("no segments mapped")
	}
}

// TestShardedMetricsSplitPostings checks the per-shard observability
// of a sharded mapper: the per-shard postings counters are registered
// and, after Map and Stream calls, sum to the global postings counter.
func TestShardedMetricsSplitPostings(t *testing.T) {
	ds := buildSmallDataset(t)
	opts := jem.DefaultOptions()
	opts.Shards = 3
	mapper, err := jem.NewMapper(ds.Contigs, opts)
	if err != nil {
		t.Fatal(err)
	}
	reg := mapper.Metrics()
	if _, err := mapper.Map(context.Background(), ds.Reads, jem.MapOptions{}); err != nil {
		t.Fatal(err)
	}
	var reads, out bytes.Buffer
	if err := writeFASTQ(&reads, ds.Reads); err != nil {
		t.Fatal(err)
	}
	if _, err := streamAll(mapper, &reads, &out); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	var perShard float64
	for i := 0; i < 4; i++ {
		v, ok := snap[fmt.Sprintf("jem_core_shard%d_postings_scanned_total", i)]
		if ok != (i < 3) {
			t.Fatalf("shard %d postings counter registered = %v, want %v", i, ok, i < 3)
		}
		perShard += v
	}
	if total := snap["jem_core_postings_scanned_total"]; perShard != total || total == 0 {
		t.Fatalf("per-shard postings sum %v, global counter %v (want equal and non-zero)", perShard, total)
	}
}
