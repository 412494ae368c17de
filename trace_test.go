package jem_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro"
	"repro/internal/obs"
)

// spanByName finds the first direct child of sp with the given name.
func spanByName(sp *obs.Span, name string) *obs.Span {
	for _, c := range sp.Children() {
		if c.Name() == name {
			return c
		}
	}
	return nil
}

func attrValue(sp *obs.Span, key string) (any, bool) {
	for _, a := range sp.Attrs() {
		if a.Key == key {
			return a.Value, true
		}
	}
	return nil, false
}

// TestStreamAttachesSpans pins the tracing contract of Stream: when
// the context carries a span, the run attaches read/sketch/gather/
// write phase children, per-shard gather children whose postings sum
// to the run total, and the run stats as attributes. An untraced
// context attaches nothing.
func TestStreamAttachesSpans(t *testing.T) {
	ds := buildSmallDataset(t)
	opts := jem.DefaultOptions()
	opts.Shards = 4
	mapper, err := jem.NewMapper(ds.Contigs, opts)
	if err != nil {
		t.Fatal(err)
	}

	var reads, out bytes.Buffer
	if err := writeFASTQ(&reads, ds.Reads); err != nil {
		t.Fatal(err)
	}
	root := obs.NewSpan("request")
	ctx := obs.ContextWithSpan(t.Context(), root)
	stats, err := mapper.Stream(ctx, &reads, &out, jem.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	root.End()

	for _, phase := range []string{"read", "sketch", "gather", "write"} {
		if spanByName(root, phase) == nil {
			t.Errorf("request span missing %q phase child", phase)
		}
	}
	gather := spanByName(root, "gather")
	if gather == nil {
		t.Fatal("no gather span")
	}
	shardSpans := gather.Children()
	if len(shardSpans) != 4 {
		t.Fatalf("gather has %d shard children, want 4", len(shardSpans))
	}
	var postings int64
	var wall int64
	for _, s := range shardSpans {
		if !strings.HasPrefix(s.Name(), "shard") {
			t.Errorf("gather child %q is not a shard span", s.Name())
		}
		v, ok := attrValue(s, "postings")
		if !ok {
			t.Fatalf("shard span %s has no postings attr", s.Name())
		}
		postings += v.(int64)
		wall += int64(s.Duration())
	}
	if postings != stats.PostingsScanned {
		t.Errorf("per-shard postings sum %d != stats total %d", postings, stats.PostingsScanned)
	}
	if wall <= 0 {
		t.Error("no shard accumulated wall time under tracing")
	}
	if v, ok := attrValue(root, "reads"); !ok || v.(int) != stats.Reads {
		t.Errorf("root reads attr = %v, want %d", v, stats.Reads)
	}
	if v, ok := attrValue(root, "mapped"); !ok || v.(int) != stats.Mapped {
		t.Errorf("root mapped attr = %v, want %d", v, stats.Mapped)
	}

	// Rendered tree carries the whole story on four lines plus shards.
	var sb strings.Builder
	if err := obs.RenderSpan(&sb, root, 0); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"request", "gather", "shard00", "postings="} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("rendered tree missing %q:\n%s", want, sb.String())
		}
	}

	// Untraced: no span in the context, nothing attached anywhere, and
	// the run still succeeds (the zero-cost default path).
	var reads2, out2 bytes.Buffer
	if err := writeFASTQ(&reads2, ds.Reads); err != nil {
		t.Fatal(err)
	}
	if _, err := mapper.Stream(t.Context(), &reads2, &out2, jem.StreamOptions{}); err != nil {
		t.Fatal(err)
	}
}

// TestStreamSpansUnsharded: a monolithic index has no gather phase —
// the trace shows read/sketch/write only.
func TestStreamSpansUnsharded(t *testing.T) {
	ds := buildSmallDataset(t)
	mapper, err := jem.NewMapper(ds.Contigs, jem.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var reads, out bytes.Buffer
	if err := writeFASTQ(&reads, ds.Reads); err != nil {
		t.Fatal(err)
	}
	root := obs.NewSpan("request")
	ctx := obs.ContextWithSpan(t.Context(), root)
	if _, err := mapper.Stream(ctx, &reads, &out, jem.StreamOptions{}); err != nil {
		t.Fatal(err)
	}
	if spanByName(root, "gather") != nil {
		t.Error("unsharded stream attached a gather span")
	}
	for _, phase := range []string{"read", "sketch", "write"} {
		if spanByName(root, phase) == nil {
			t.Errorf("request span missing %q phase child", phase)
		}
	}
}

// TestMapChildSpan: the batch Map entry point contributes a "map"
// child when traced.
func TestMapChildSpan(t *testing.T) {
	ds := buildSmallDataset(t)
	mapper, err := jem.NewMapper(ds.Contigs, jem.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	root := obs.NewSpan("request")
	ctx := obs.ContextWithSpan(t.Context(), root)
	if _, err := mapper.Map(ctx, ds.Reads, jem.MapOptions{}); err != nil {
		t.Fatal(err)
	}
	c := spanByName(root, "map")
	if c == nil {
		t.Fatal("no map child span")
	}
	if !c.Ended() {
		t.Error("map span left open")
	}
	if v, ok := attrValue(c, "reads"); !ok || v.(int) != len(ds.Reads) {
		t.Errorf("map span reads attr = %v, want %d", v, len(ds.Reads))
	}
}

// TestOpenIndexLoadSpans pins the span trees an index leaves in its
// mapper's registry, every span ended. A sharded build and a save leave
// index.build, with its sketch phase and a freeze child holding one
// span per shard, then index.write. An open, under heap and under mmap,
// leaves one index.load root whose read child holds one span per shard,
// and nothing else. Shards lay out and load in parallel, so their
// spans' order is not pinned. An open that fails on a truncated index
// ends its spans too.
func TestOpenIndexLoadSpans(t *testing.T) {
	ds := buildSmallDataset(t)
	opts := jem.DefaultOptions()
	opts.Shards = 3
	built, err := jem.NewMapper(ds.Contigs, opts)
	if err != nil {
		t.Fatal(err)
	}
	idx := filepath.Join(t.TempDir(), "idx.jem")
	if err := built.SaveIndexFile(idx); err != nil {
		t.Fatal(err)
	}
	const wantBuild = "index.build\n  freeze\n    shard0\n    shard1\n    shard2\n  sketch\nindex.write\n"
	if got := spanForest(t, built.Metrics().Tracer()); got != wantBuild {
		t.Errorf("build and save left the span tree\n%swant\n%s", got, wantBuild)
	}
	const want = "index.load\n  read\n    shard0\n    shard1\n    shard2\n"
	for _, mode := range []jem.MemoryMode{jem.MemoryHeap, jem.MemoryMMap} {
		m, _, err := jem.Open(jem.OpenOptions{IndexPath: idx, Options: jem.Options{Memory: jem.Memory{Mode: mode}}})
		if err != nil {
			t.Fatal(err)
		}
		if got := spanForest(t, m.Metrics().Tracer()); got != want {
			t.Errorf("%v: Open left the span tree\n%swant\n%s", mode, got, want)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}

	data, err := os.ReadFile(idx)
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(t.TempDir(), "bad.jem")
	if err := os.WriteFile(bad, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	if _, _, err := jem.Open(jem.OpenOptions{IndexPath: bad, Options: jem.Options{Metrics: reg}}); err == nil {
		t.Fatal("a truncated index opened")
	}
	if got, want := spanForest(t, reg.Tracer()), "index.load\n  read\n"; got != want {
		t.Errorf("a failed Open left the span tree\n%swant\n%s", got, want)
	}
}

// spanForest writes every root of tr with writeSpanTree.
func spanForest(t *testing.T, tr *obs.Tracer) string {
	var b strings.Builder
	for _, root := range tr.Roots() {
		writeSpanTree(t, &b, root, 0)
	}
	return b.String()
}

// writeSpanTree writes sp's subtree as indented names, children sorted
// by name, and fails the test on a span left open.
func writeSpanTree(t *testing.T, b *strings.Builder, sp *obs.Span, depth int) {
	if !sp.Ended() {
		t.Errorf("span %s left open", sp.Name())
	}
	fmt.Fprintf(b, "%*s%s\n", 2*depth, "", sp.Name())
	kids := sp.Children()
	sort.Slice(kids, func(i, j int) bool { return kids[i].Name() < kids[j].Name() })
	for _, c := range kids {
		writeSpanTree(t, b, c, depth+1)
	}
}
