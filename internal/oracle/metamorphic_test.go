package oracle

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/seq"
)

// path maps a read set through one read-set entry point at one setting
// and returns its rows in (read, end) order.
type path struct {
	name string
	rows func(t *testing.T, reads []seq.Record) []core.Result
}

// paths are core MapReads and the facade's Map at W ∈ {1,4} workers
// over P ∈ {1,8} shards of contigs. The Map path also streams the reads
// and requires Stream's TSV to equal Map's byte for byte, so a property
// of Map's rows holds for Stream's. Each core index is built by W
// workers and must hold the given number of table entries.
func paths(t *testing.T, contigs []seq.Record, entries int) []path {
	ctx := context.Background()
	var out []path
	for _, p := range []int{1, 8} {
		opts := matrixParams.options()
		opts.Shards = p
		fm, err := jem.NewMapper(contigs, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 4} {
			cm, err := core.NewMapper(matrixParams.sketch())
			if err != nil {
				t.Fatal(err)
			}
			cm.AddSubjectsParallel(contigs, w)
			cm.SealSharded(p, w)
			if cm.Entries() != entries {
				t.Errorf("core/W=%d/P=%d holds %d table entries, want %d", w, p, cm.Entries(), entries)
			}
			out = append(out,
				path{fmt.Sprintf("MapReads/W=%d/P=%d", w, p), func(t *testing.T, reads []seq.Record) []core.Result {
					res, err := cm.MapReads(ctx, reads, matrixParams.l, w)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}},
				path{fmt.Sprintf("Map+Stream/W=%d/P=%d", w, p), func(t *testing.T, reads []seq.Record) []core.Result {
					maps, err := fm.Map(ctx, reads, jem.MapOptions{Workers: w})
					if err != nil {
						t.Fatal(err)
					}
					var streamed bytes.Buffer
					if _, err := fm.Stream(ctx, bytes.NewReader(fasta(t, reads)), &streamed, jem.StreamOptions{Workers: w}); err != nil {
						t.Fatal(err)
					}
					if mapped := tsv(t, maps); !bytes.Equal(streamed.Bytes(), mapped) {
						t.Errorf("W=%d P=%d: Stream TSV line %s", w, p, firstDiff(lines(streamed.Bytes()), lines(mapped)))
					}
					return results(maps)
				}})
		}
	}
	return out
}

// results projects facade mappings onto core rows.
func results(maps []jem.Mapping) []core.Result {
	out := make([]core.Result, len(maps))
	for i, mp := range maps {
		out[i] = core.Result{ReadIndex: int32(mp.ReadIndex), Subject: -1}
		if mp.End == jem.SuffixEnd {
			out[i].Kind = core.Suffix
		}
		if mp.Mapped {
			out[i].Subject, out[i].Count = int32(mp.Contig), int32(mp.SharedTrials)
		}
	}
	return out
}

// metamorphic checks four properties on every path:
//
//   - permuting the contig order only permutes the ids: of the contigs
//     tied for the reference's best hit over w, the one the permutation
//     gives the lowest id wins, with the same count;
//   - appending an unrelated contig never removes a hit: a segment
//     keeps the reference's best hit, or the new contig takes it with a
//     higher count;
//   - mapping a read set split at any record boundary and concatenating
//     the outputs (the second half's read indices shifted) gives the
//     unsplit output;
//   - the two rows of a read longer than ℓ trade places — same contig,
//     same count — when the read is reverse-complemented, since a
//     sketch is strand-invariant.
func metamorphic(t *testing.T, w world, ref *reference, wants []expected) {
	n := len(w.contigs)
	perm := rand.New(rand.NewSource(9)).Perm(n) // old id → new id
	permuted := make([]seq.Record, n)
	for old, id := range perm {
		permuted[id] = w.contigs[old]
	}
	unrelated := randomBases(rand.New(rand.NewSource(13)), 3_000)
	appended := append(append([]seq.Record(nil), w.contigs...), seq.Record{ID: "unrelated", Seq: unrelated})

	// against checks every path over contigs on every input, row by
	// row, against the reference's answers over w.
	against := func(t *testing.T, contigs []seq.Record, entries int, holds func(a answer, got core.Result) bool) {
		for _, pa := range paths(t, contigs, entries) {
			for i, in := range w.inputs {
				rows := pa.rows(t, in.reads)
				if len(rows) != len(wants[i].results) {
					t.Fatalf("%s %s: %d rows, want %d", pa.name, in.name, len(rows), len(wants[i].results))
				}
				for j, got := range rows {
					want := wants[i].results[j]
					if got.ReadIndex != want.ReadIndex || got.Kind != want.Kind || !holds(wants[i].answers[j], got) {
						t.Errorf("%s %s: row %d %v; reference over the unchanged contigs %+v", pa.name, in.name, j, got, wants[i].answers[j])
					}
				}
			}
		}
	}
	entries := ref.entries()
	t.Run("permuted", func(t *testing.T) {
		against(t, permuted, entries, func(a answer, got core.Result) bool {
			want := hit{-1, 0}
			for _, h := range a.ranking {
				if h.count == a.count && (want.subject < 0 || int32(perm[h.subject]) < want.subject) {
					want = hit{int32(perm[h.subject]), h.count}
				}
			}
			return got.Subject == want.subject && got.Count == want.count
		})
	})
	t.Run("appended", func(t *testing.T) {
		extra := newReference(matrixParams, [][]byte{unrelated}).entries()
		against(t, appended, entries+extra, func(a answer, got core.Result) bool {
			return got.Subject == a.subject && got.Count == a.count || got.Subject == int32(n) && got.Count > a.count
		})
	})

	// A few reads of every input, for the properties within one world.
	var reads, long []seq.Record
	for _, in := range w.inputs {
		reads = append(reads, in.reads[:min(3, len(in.reads))]...)
	}
	for _, r := range reads {
		if len(r.Seq) > matrixParams.l {
			long = append(long, r)
		}
	}
	for _, r := range long {
		long = append(long, seq.Record{ID: r.ID + "/rc", Seq: seq.ReverseComplement(r.Seq)})
	}
	ps := paths(t, w.contigs, entries)
	t.Run("split-concat", func(t *testing.T) {
		for _, pa := range ps {
			want := pa.rows(t, reads)
			for k := 0; k <= len(reads); k++ {
				got := pa.rows(t, reads[:k])
				for _, r := range pa.rows(t, reads[k:]) {
					r.ReadIndex += int32(k)
					got = append(got, r)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: split at %d changes row %s", pa.name, k, firstDiff(got, want))
				}
			}
		}
	})
	t.Run("reverse-complement", func(t *testing.T) {
		half := len(long) / 2
		for _, pa := range ps {
			rows := pa.rows(t, long)
			if len(rows) != 4*half {
				t.Fatalf("%s: %d rows for %d reads longer than ℓ", pa.name, len(rows), len(long))
			}
			for i := 0; i < half; i++ {
				fwd, rc := rows[2*i:2*i+2], rows[2*(half+i):2*(half+i)+2]
				for e := 0; e < 2; e++ {
					if a, b := fwd[e], rc[1-e]; a.Subject != b.Subject || a.Count != b.Count {
						t.Errorf("%s: read %d end %d maps to %v, its reverse complement's other end to %v", pa.name, i, e, a, b)
					}
				}
			}
		}
	})
}
