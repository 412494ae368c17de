package jem_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/seq"
)

// endRow is one end segment's answer, in a form every read-set path
// can be read back into.
type endRow struct {
	read   int
	suffix bool
	contig string // "" when unmapped
	count  int
}

// readSetPath maps a read set through one entry point at one setting.
type readSetPath struct {
	name string
	rows func(t *testing.T, reads []seq.Record) []endRow
}

// readSetPaths are core MapReads, Map and Stream at W ∈ {1, 4} and
// P ∈ {1, 8} over contigs.
func readSetPaths(t *testing.T, contigs []seq.Record) []readSetPath {
	t.Helper()
	ctx := context.Background()
	l := readSetParams().L
	var paths []readSetPath
	for _, shards := range []int{1, 8} {
		cm := sealedCore(t, contigs, shards)
		opts := jem.DefaultOptions()
		opts.Shards = shards
		m, err := jem.NewMapper(contigs, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 4} {
			key := fmt.Sprintf("P%d/W%d", shards, w)
			paths = append(paths,
				readSetPath{"core/" + key, func(t *testing.T, reads []seq.Record) []endRow {
					res, err := cm.MapReads(ctx, reads, l, w)
					if err != nil {
						t.Fatal(err)
					}
					rows := make([]endRow, len(res))
					for i, r := range res {
						rows[i] = endRow{read: int(r.ReadIndex), suffix: r.Kind == core.Suffix, count: int(r.Count)}
						if r.Mapped() {
							rows[i].contig = cm.Subject(r.Subject).Name
						}
					}
					return rows
				}},
				readSetPath{"map/" + key, func(t *testing.T, reads []seq.Record) []endRow {
					ms, err := m.Map(ctx, reads, jem.MapOptions{Workers: w})
					if err != nil {
						t.Fatal(err)
					}
					rows := make([]endRow, len(ms))
					for i, mp := range ms {
						rows[i] = endRow{read: mp.ReadIndex, suffix: mp.End == jem.SuffixEnd, contig: mp.ContigID, count: mp.SharedTrials}
					}
					return rows
				}},
				readSetPath{"stream/" + key, func(t *testing.T, reads []seq.Record) []endRow {
					var in, out bytes.Buffer
					if err := seq.WriteFASTQ(&in, reads); err != nil {
						t.Fatal(err)
					}
					if _, err := m.Stream(ctx, &in, &out, jem.StreamOptions{Workers: w}); err != nil {
						t.Fatal(err)
					}
					return streamRows(t, out.String(), reads)
				}},
			)
		}
	}
	return paths
}

// streamRows reads a Stream TSV back into rows; a row's read index is
// the position of its read ID in reads.
func streamRows(t *testing.T, tsv string, reads []seq.Record) []endRow {
	t.Helper()
	index := make(map[string]int, len(reads))
	for i, r := range reads {
		index[r.ID] = i
	}
	lines := strings.Split(strings.TrimSuffix(tsv, "\n"), "\n")[1:]
	rows := make([]endRow, len(lines))
	for i, line := range lines {
		f := strings.Split(line, "\t")
		if len(f) != 4 {
			t.Fatalf("malformed row %q", line)
		}
		count, err := strconv.Atoi(f[3])
		if err != nil {
			t.Fatal(err)
		}
		rows[i] = endRow{read: index[f[0]], suffix: f[1] == string(jem.SuffixEnd), count: count}
		if f[2] != "*" {
			rows[i].contig = f[2]
		}
	}
	return rows
}

// metamorphicReads is a small slice of readSetWorld: twelve HiFi reads
// plus the three adversarial records.
func metamorphicReads(reads []seq.Record) []seq.Record {
	return append(append([]seq.Record(nil), reads[:12]...), reads[len(reads)-3:]...)
}

// TestMetamorphicSplitConcat: mapping a read set split at any record
// boundary and concatenating the two outputs (the second half's read
// indices shifted) gives the unsplit output — on every read-set path.
func TestMetamorphicSplitConcat(t *testing.T) {
	contigs, all := readSetWorld(t)
	reads := metamorphicReads(all)
	for _, path := range readSetPaths(t, contigs) {
		want := path.rows(t, reads)
		for k := 0; k <= len(reads); k++ {
			got := path.rows(t, reads[:k])
			for _, r := range path.rows(t, reads[k:]) {
				r.read += k
				got = append(got, r)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: split at %d changes the output", path.name, k)
			}
		}
	}
}

// TestMetamorphicReverseComplement: the suffix of a reverse-complemented
// read is the reverse complement of its prefix and vice versa, and a
// sketch is strand-invariant (sketch.TestSketchStrandInvariance), so
// the two rows of a read longer than ℓ trade places — same contig, same
// count — on every read-set path.
func TestMetamorphicReverseComplement(t *testing.T) {
	contigs, all := readSetWorld(t)
	var reads []seq.Record
	for _, r := range metamorphicReads(all) {
		if len(r.Seq) > readSetParams().L {
			reads = append(reads, r)
		}
	}
	n := len(reads)
	for i := 0; i < n; i++ {
		reads = append(reads, seq.Record{ID: reads[i].ID + "/rc", Seq: seq.ReverseComplement(reads[i].Seq)})
	}
	for _, path := range readSetPaths(t, contigs) {
		rows := path.rows(t, reads)
		if len(rows) != 4*n {
			t.Fatalf("%s: %d rows for %d reads longer than ℓ", path.name, len(rows), 2*n)
		}
		for i := 0; i < n; i++ {
			fwd, rc := rows[2*i:2*i+2], rows[2*(n+i):2*(n+i)+2]
			for e := 0; e < 2; e++ {
				a, b := fwd[e], rc[1-e]
				if a.contig != b.contig || a.count != b.count {
					t.Fatalf("%s: read %d end %d maps to %q×%d, its reverse complement's other end to %q×%d",
						path.name, i, e, a.contig, a.count, b.contig, b.count)
				}
			}
		}
	}
}
