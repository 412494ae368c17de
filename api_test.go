package jem_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro"
)

// smallTestOptions are cheap parameters for facade tests that do not
// need the paper's defaults.
func smallTestOptions() jem.Options {
	return jem.Options{K: 12, W: 10, Trials: 12, SegmentLen: 500, Seed: 7}
}

// TestCanonicalDeterminism pins the repeatability contract of the
// canonical entry points: repeated Map and Stream calls on one mapper
// return identical results regardless of worker count.
func TestCanonicalDeterminism(t *testing.T) {
	ds := buildSmallDataset(t)
	m, err := jem.NewMapper(ds.Contigs, smallTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	canonical, err := m.Map(context.Background(), ds.Reads, jem.MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := mapAll(m, ds.Reads); !reflect.DeepEqual(got, canonical) {
		t.Fatal("repeated Map call diverges")
	}
	if got, err := m.Map(context.Background(), ds.Reads, jem.MapOptions{Workers: 2}); err != nil || !reflect.DeepEqual(got, canonical) {
		t.Fatalf("Map with a worker override diverges (err=%v)", err)
	}

	var fa bytes.Buffer
	if err := seqWriteFASTA(&fa, ds.Reads); err != nil {
		t.Fatal(err)
	}
	var out1, out2 bytes.Buffer
	if _, err := m.Stream(context.Background(), bytes.NewReader(fa.Bytes()), &out1, jem.StreamOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := streamAll(m, bytes.NewReader(fa.Bytes()), &out2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
		t.Fatal("repeated Stream call diverges")
	}
	// Per-call worker override must not change output either.
	var out3 bytes.Buffer
	if _, err := m.Stream(context.Background(), bytes.NewReader(fa.Bytes()), &out3, jem.StreamOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out3.Bytes(), out1.Bytes()) {
		t.Fatal("Stream with Workers override diverges")
	}
}

// seqWriteFASTA renders records as FASTA into w (tests only).
func seqWriteFASTA(w *bytes.Buffer, recs []jem.Record) error {
	for _, r := range recs {
		w.WriteString(">")
		w.WriteString(r.ID)
		w.WriteString("\n")
		w.Write(r.Seq)
		w.WriteString("\n")
	}
	return nil
}

func TestOptionsValidateTypedErrors(t *testing.T) {
	cases := []struct {
		name  string
		mod   func(*jem.Options)
		field string
	}{
		{"workers", func(o *jem.Options) { o.Workers = -1 }, "Workers"},
		{"segmentlen", func(o *jem.Options) { o.SegmentLen = 4 }, ""},
		{"shards-negative", func(o *jem.Options) { o.Shards = -1 }, "Shards"},
		{"shards-huge", func(o *jem.Options) { o.Shards = 1 << 20 }, "Shards"},
	}
	for _, tc := range cases {
		opts := jem.DefaultOptions()
		tc.mod(&opts)
		err := opts.Validate()
		if err == nil {
			t.Errorf("%s: invalid options accepted", tc.name)
			continue
		}
		if !errors.Is(err, jem.ErrInvalidOptions) {
			t.Errorf("%s: error %v does not wrap ErrInvalidOptions", tc.name, err)
		}
		if tc.field != "" {
			var oe *jem.OptionError
			if !errors.As(err, &oe) || oe.Field != tc.field {
				t.Errorf("%s: error %v is not an OptionError for field %s", tc.name, err, tc.field)
			}
		}
		if _, nerr := jem.NewMapper(nil, opts); nerr == nil {
			t.Errorf("%s: NewMapper accepted invalid options", tc.name)
		}
	}
	if err := jem.DefaultOptions().Validate(); err != nil {
		t.Errorf("defaults rejected: %v", err)
	}
	// Per-call option structs are validated by the canonical methods.
	m, err := jem.NewMapper(nil, jem.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Map(context.Background(), nil, jem.MapOptions{Workers: -2}); !errors.Is(err, jem.ErrInvalidOptions) {
		t.Errorf("Map accepted Workers=-2: %v", err)
	}
	var sink bytes.Buffer
	if _, err := m.Stream(context.Background(), strings.NewReader(""), &sink, jem.StreamOptions{MaxRecordLen: -1}); !errors.Is(err, jem.ErrInvalidOptions) {
		t.Errorf("Stream accepted MaxRecordLen=-1: %v", err)
	}
	if _, err := m.Stream(context.Background(), strings.NewReader(""), &sink, jem.StreamOptions{Format: 9}); !errors.Is(err, jem.ErrInvalidOptions) || sink.Len() != 0 {
		t.Errorf("Stream accepted Format 9 (wrote %d bytes): %v", sink.Len(), err)
	}
	for _, f := range []jem.Format{jem.FormatTSV, jem.FormatPAF, jem.FormatSAM, jem.FormatNDJSON} {
		if got, err := jem.ParseFormat(f.String()); got != f || err != nil {
			t.Errorf("ParseFormat(%q) = %v, %v", f, got, err)
		}
	}
	if _, err := jem.ParseFormat("bam"); err == nil {
		t.Error("ParseFormat accepted bam")
	}
}

func TestOpenBuildLoadRebuild(t *testing.T) {
	ds := buildSmallDataset(t)
	opts := smallTestOptions()
	opts.Shards = 3
	dir := t.TempDir()
	idxPath := filepath.Join(dir, "jem.idx")

	// Build path.
	built, info, err := jem.Open(jem.OpenOptions{Contigs: ds.Contigs, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	if info.FromIndex || info.Rebuilt || info.IndexErr != nil {
		t.Fatalf("build path reported %+v", info)
	}
	want := mapAll(built, ds.Reads)
	if err := built.SaveIndexFile(idxPath); err != nil {
		t.Fatal(err)
	}

	// Load path.
	loaded, info, err := jem.Open(jem.OpenOptions{Contigs: ds.Contigs, IndexPath: idxPath, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	if !info.FromIndex || info.Rebuilt {
		t.Fatalf("load path reported %+v", info)
	}
	if loaded.Shards() != 3 {
		t.Fatalf("loaded mapper has %d shards, want 3", loaded.Shards())
	}
	if got := mapAll(loaded, ds.Reads); !reflect.DeepEqual(got, want) {
		t.Fatal("loaded mapper maps differently")
	}

	// Corrupt the index; without the fallback the load fails...
	raw, err := os.ReadFile(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(idxPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := jem.Open(jem.OpenOptions{Contigs: ds.Contigs, IndexPath: idxPath, Options: opts}); !errors.Is(err, jem.ErrIndexChecksum) {
		t.Fatalf("corrupt load error = %v, want ErrIndexChecksum", err)
	}
	// ...and with it the mapper is rebuilt from the contigs.
	rebuilt, info, err := jem.Open(jem.OpenOptions{
		Contigs: ds.Contigs, IndexPath: idxPath, RebuildOnCorrupt: true, Options: opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Rebuilt || info.FromIndex || !errors.Is(info.IndexErr, jem.ErrIndexChecksum) {
		t.Fatalf("rebuild path reported %+v", info)
	}
	if got := mapAll(rebuilt, ds.Reads); !reflect.DeepEqual(got, want) {
		t.Fatal("rebuilt mapper maps differently")
	}

	// Error contracts: missing index file is NOT a rebuild trigger, and
	// Open with neither source is an error.
	if _, _, err := jem.Open(jem.OpenOptions{
		Contigs: ds.Contigs, IndexPath: filepath.Join(dir, "absent.idx"), RebuildOnCorrupt: true, Options: opts,
	}); err == nil {
		t.Fatal("missing index silently rebuilt")
	}
	if _, _, err := jem.Open(jem.OpenOptions{}); err == nil {
		t.Fatal("Open with neither contigs nor index succeeded")
	}
}
