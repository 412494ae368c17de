package oracle

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/genome"
	"repro/internal/obs"
	"repro/internal/seq"
	"repro/internal/shardnet"
	"repro/internal/sketch"
)

// matrixParams are small enough for the brute-force reference and
// large enough for multi-trial counts, repeats and ties.
var matrixParams = params{k: 10, w: 6, t: 12, l: 300, seed: 11}

func (p params) sketch() sketch.Params {
	return sketch.Params{K: p.k, W: p.w, T: p.t, L: p.l, Seed: p.seed}
}

func (p params) options() jem.Options {
	return jem.Options{K: p.k, W: p.w, Trials: p.t, SegmentLen: p.l, Seed: p.seed}
}

func randomBases(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = "ACGT"[rng.Intn(4)]
	}
	return s
}

// input is one named read set the matrix maps.
type input struct {
	name  string
	reads []seq.Record
}

// world is the one subject set every backend is built from, and the
// inputs each maps.
type world struct {
	contigs []seq.Record
	inputs  []input
}

// newWorld carves contigs out of a genome with repeats and N gaps, into
// which one repeat unit is planted four times and a poly-A run once. It
// adds a copy of two contigs (every trial ties, and the copies have the
// higher ids) and a contig that is the repeat unit alone.
func newWorld(t testing.TB) world {
	g, err := genome.Generate(genome.Config{Length: 36_000, RepeatFraction: 0.2, RepeatUnit: 400,
		RepeatDivergence: 0.02, GapFraction: 0.01, GapUnit: 120, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ref := g.Seq
	rng := rand.New(rand.NewSource(5))
	unit := randomBases(rng, 350)
	unitAt := []int{2_000, 11_000, 20_000, 29_000}
	for _, at := range unitAt {
		copy(ref[at:], unit)
	}
	copy(ref[6_000:6_300], bytes.Repeat([]byte("A"), 300))
	var w world
	for at := 0; at < len(ref); at += 1_500 {
		w.contigs = append(w.contigs, seq.Record{ID: fmt.Sprintf("c%02d", len(w.contigs)), Seq: ref[at:min(at+1_500, len(ref))]})
	}
	w.contigs = append(w.contigs,
		seq.Record{ID: "c03-copy", Seq: w.contigs[3].Seq},
		seq.Record{ID: "c17-copy", Seq: w.contigs[17].Seq},
		seq.Record{ID: "unit", Seq: unit})

	// sample copies n bases at `at`, reverse-complemented when asked,
	// with a substitution rate of subst percent.
	sample := func(at, n int, revcomp bool, subst int) []byte {
		s := append([]byte(nil), ref[at:at+n]...)
		if revcomp {
			s = seq.ReverseComplement(s)
		}
		for i := range s {
			if rng.Intn(100) < subst {
				s[i] = "ACGT"[rng.Intn(4)]
			}
		}
		return s
	}
	add := func(name string, seqs ...[]byte) {
		in := input{name: name}
		for i, s := range seqs {
			in.reads = append(in.reads, seq.Record{ID: fmt.Sprintf("%s-%d", name, i), Seq: s})
		}
		w.inputs = append(w.inputs, in)
	}
	var genomeReads [][]byte
	for i := 0; i < 48; i++ {
		n := 600 + rng.Intn(900)
		genomeReads = append(genomeReads, sample(rng.Intn(len(ref)-n), n, i%2 == 1, []int{0, 1, 4, 8}[i%4]))
	}
	add("genome", genomeReads...)
	add("duplicate-contigs", sample(4_600, 700, false, 0), sample(25_600, 900, true, 0))
	add("repeat-unit", unit, sample(unitAt[0]-200, 800, false, 0), sample(unitAt[1]-200, 800, true, 1),
		sample(unitAt[2]-300, 700, false, 1), sample(unitAt[3]-50, 450, false, 0))
	add("homopolymer", bytes.Repeat([]byte("A"), 400), bytes.Repeat([]byte("C"), 300),
		bytes.Repeat([]byte("G"), 250), bytes.Repeat([]byte("T"), 1_000), sample(5_800, 700, false, 0))
	add("all-N", bytes.Repeat([]byte("N"), 100), bytes.Repeat([]byte("N"), 300), bytes.Repeat([]byte("N"), 1_000))
	p := matrixParams
	add("shorter-than-k+w-1", sample(100, 1, false, 0), sample(200, p.k-1, false, 0),
		sample(300, p.k, false, 0), sample(400, p.k+p.w-2, true, 0))
	add("shorter-than-l", sample(500, p.k+p.w-1, false, 0), sample(900, 100, true, 0),
		sample(1_300, p.l-1, false, 1), sample(1_700, p.l, false, 0), sample(2_900, p.l+1, true, 0))
	return w
}

func sequences(records []seq.Record) [][]byte {
	out := make([][]byte, len(records))
	for i := range records {
		out[i] = records[i].Seq
	}
	return out
}

// column is what one backend answered for one input: rows in (read,
// end) order or TSV bytes, whichever it reports, and the postings it
// examined. A core backend also answers every reference segment
// through one session, as the reference would (probes), with the
// positional estimate of each.
type column struct {
	results    []core.Result
	tsv        []byte
	postings   int64
	probes     []answer
	positional []core.PositionalHit
}

// backend is one row of the matrix.
type backend struct {
	name string
	run  func(t *testing.T, in input, segs []segment) column
}

// coreRow serves from a core mapper: MapReads over the input, and each
// reference segment through MapSegment, MapSegmentTopK and
// MapSegmentPositional on one session.
func coreRow(name string, m *core.Mapper) backend {
	return backend{name, func(t *testing.T, in input, segs []segment) column {
		res, err := m.MapReads(context.Background(), in.reads, matrixParams.l, 2)
		if err != nil {
			t.Fatal(err)
		}
		col := column{results: res}
		sess := m.NewSession()
		for _, sg := range segs {
			before := sess.PostingsScanned()
			h, ok := sess.MapSegment(sg.seq)
			pr := answer{subject: h.Subject, count: h.Count, postings: sess.PostingsScanned() - before}
			for _, top := range sess.MapSegmentTopK(sg.seq, m.NumSubjects()) {
				pr.ranking = append(pr.ranking, hit{top.Subject, top.Count})
			}
			pos, posOK := sess.MapSegmentPositional(sg.seq)
			if ok != (h.Subject >= 0) || posOK != ok || pos.Hit != h {
				t.Errorf("%s: MapSegment %+v,%v, positional %+v,%v", name, h, ok, pos, posOK)
			}
			col.postings += pr.postings
			col.probes = append(col.probes, pr)
			col.positional = append(col.positional, pos)
		}
		return col
	}}
}

// fasta renders reads as the FASTA a stream reads.
func fasta(t *testing.T, reads []seq.Record) []byte {
	var b bytes.Buffer
	if err := seq.WriteFASTA(&b, reads, 80); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// streamRow serves from a facade mapper through Stream.
func streamRow(name string, m *jem.Mapper) backend {
	return backend{name, func(t *testing.T, in input, _ []segment) column {
		var tsv bytes.Buffer
		stats, err := m.Stream(context.Background(), bytes.NewReader(fasta(t, in.reads)), &tsv, jem.StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if stats.ShardsLost != nil {
			t.Errorf("%s: a healthy backend lost shards %v", name, stats.ShardsLost)
		}
		return column{tsv: tsv.Bytes(), postings: stats.PostingsScanned}
	}}
}

// mapRow serves from a facade mapper through Map, reading the postings
// off the mapper's registry.
func mapRow(name string, m *jem.Mapper) backend {
	postings := m.Metrics().Counter("jem_core_postings_scanned_total", "")
	return backend{name, func(t *testing.T, in input, _ []segment) column {
		before := postings.Value()
		maps, err := m.Map(context.Background(), in.reads, jem.MapOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return column{tsv: tsv(t, maps), postings: postings.Value() - before}
	}}
}

// tsv renders mappings with WriteTSV.
func tsv(t *testing.T, maps []jem.Mapping) []byte {
	var b bytes.Buffer
	if err := jem.WriteTSV(&b, maps); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// distRow maps through the simulated ranks of §III-C.
func distRow(w world, p int) backend {
	return backend{fmt.Sprintf("dist/p=%d", p), func(t *testing.T, in input, _ []segment) column {
		out, err := dist.Run(w.contigs, in.reads, dist.Config{P: p, Params: matrixParams.sketch()})
		if err != nil {
			t.Fatal(err)
		}
		return column{results: out.Results, postings: out.PostingsScanned}
	}}
}

// startFleet serves the index at path from n in-process shard servers
// on unix sockets (server i owns the shards ≡ i mod n), the jem-shardd
// fleet without the processes, and returns their addresses.
func startFleet(t *testing.T, path string, n int) []string {
	dir := t.TempDir()
	var addrs []string
	for i := 0; i < n; i++ {
		tables, meta, err := core.ReadShardSubsetFile(path, func(sd int) bool { return sd%n == i })
		if err != nil {
			t.Fatal(err)
		}
		srv, err := shardnet.NewServer(tables, shardnet.Info{Shards: meta.Shards, T: meta.T,
			NumSubjects: meta.NumSubjects, ManifestCRC: meta.ManifestCRC})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("unix", filepath.Join(dir, fmt.Sprintf("s%d.sock", i)))
		if err != nil {
			t.Fatal(err)
		}
		srv.Start(ln)
		t.Cleanup(func() { _ = srv.Close() })
		addrs = append(addrs, "unix:"+ln.Addr().String())
	}
	return addrs
}

// open opens a saved index through the facade, closed with the test.
func open(t *testing.T, oo jem.OpenOptions) (*jem.Mapper, jem.OpenInfo) {
	m, info, err := jem.Open(oo)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	return m, info
}

// backends builds every row from w, at P ∈ {1,2,3,8} shards: core; the
// facade's Map and Stream, and its index saved and loaded back from a
// stream (LoadMapper); the core index saved and reopened under heap
// and under mmap; an in-process shard-server fleet serving that index,
// through the facade and through core; and then the simulated ranks at
// p ∈ {1,3,8,41}. A new backend adds a row here.
func backends(t *testing.T, w world, ref *reference) []backend {
	var rows []backend
	for _, p := range []int{1, 2, 3, 8} {
		cm, err := core.NewMapper(matrixParams.sketch())
		if err != nil {
			t.Fatal(err)
		}
		cm.AddSubjectsParallel(w.contigs, 2)
		cm.SealSharded(p, 2)
		if cm.Entries() != ref.entries() {
			t.Errorf("core P=%d holds %d table entries, the reference %d", p, cm.Entries(), ref.entries())
		}
		idx := filepath.Join(t.TempDir(), "idx.jem")
		if err := cm.WriteIndexFile(idx); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, coreRow(fmt.Sprintf("core/P=%d", p), cm))

		opts := matrixParams.options()
		opts.Shards = p
		fm, err := jem.NewMapper(w.contigs, opts)
		if err != nil {
			t.Fatal(err)
		}
		var saved bytes.Buffer
		if err := fm.SaveIndex(&saved); err != nil {
			t.Fatal(err)
		}
		lm, err := jem.LoadMapper(&saved, w.contigs)
		if err != nil {
			t.Fatal(err)
		}
		if fm.Shards() != p || lm.Shards() != p {
			t.Errorf("facade P=%d: built with %d shards, loaded with %d", p, fm.Shards(), lm.Shards())
		}
		rows = append(rows, mapRow(fmt.Sprintf("facade/Map/P=%d", p), fm),
			streamRow(fmt.Sprintf("facade/Stream/P=%d", p), fm), mapRow(fmt.Sprintf("loaded/Map/P=%d", p), lm))

		for _, mode := range []jem.MemoryMode{jem.MemoryHeap, jem.MemoryMMap} {
			m, _ := open(t, jem.OpenOptions{IndexPath: idx, Options: jem.Options{Memory: jem.Memory{Mode: mode}}})
			rows = append(rows, streamRow(fmt.Sprintf("saved/%v/P=%d", mode, p), m))
		}

		addrs := startFleet(t, idx, max(1, p/2))
		fleet, info := open(t, jem.OpenOptions{IndexPath: idx, ShardServers: addrs})
		if !info.Remote || !info.FromIndex {
			t.Errorf("fleet P=%d: OpenInfo %+v, want Remote and FromIndex", p, info)
		}
		remote, _, err := core.ReadIndexMetaFile(idx)
		if err != nil {
			t.Fatal(err)
		}
		coord, err := shardnet.Dial(context.Background(), addrs, shardnet.Config{}, obs.NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = coord.Close() })
		remote.SetRemote(coord)
		rows = append(rows, streamRow(fmt.Sprintf("fleet/Stream/P=%d", p), fleet), coreRow(fmt.Sprintf("fleet/core/P=%d", p), remote))
	}
	for _, p := range []int{1, 3, 8, 41} {
		rows = append(rows, distRow(w, p))
	}
	return rows
}

// expected is the reference's column for one input: its answers, the
// rows and TSV a backend must produce, and the postings it examines.
type expected struct {
	segs     []segment
	answers  []answer
	results  []core.Result
	tsv      []byte
	postings int64
}

func expect(ref *reference, contigs []seq.Record, in input) expected {
	e := expected{segs: ends(sequences(in.reads), ref.p.l)}
	var tsv bytes.Buffer
	tsv.WriteString("read_id\tend\tcontig_id\tshared_trials\n")
	for _, sg := range e.segs {
		a := ref.mapSegment(sg.seq)
		e.answers = append(e.answers, a)
		e.postings += a.postings
		r := core.Result{ReadIndex: int32(sg.read), Subject: a.subject, Count: a.count}
		end := "prefix"
		if sg.suffix {
			r.Kind, end = core.Suffix, "suffix"
		}
		e.results = append(e.results, r)
		contig := "*"
		if a.subject >= 0 {
			contig = contigs[a.subject].ID
		}
		fmt.Fprintf(&tsv, "%s\t%s\t%s\t%d\n", in.reads[sg.read].ID, end, contig, a.count)
	}
	e.tsv = tsv.Bytes()
	return e
}

// firstDiff names the first element where got and want differ.
func firstDiff[T comparable](got, want []T) string {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Sprintf("%d: got %v, want %v", i, got[i], want[i])
		}
	}
	return fmt.Sprintf("%d entries, want %d", len(got), len(want))
}

// lines splits a TSV into its lines.
func lines(b []byte) []string { return strings.Split(string(b), "\n") }

// TestBackendMatrix checks every backend, built from one shared world,
// against the reference on every input: the same best hit and count
// for every end segment (TSV bytes for the facade rows), the same
// number of postings examined, and for the core rows the same postings
// per segment, the same full top-k ranking and the same positional
// estimate. Then it checks the two metamorphic properties below.
func TestBackendMatrix(t *testing.T) {
	w := newWorld(t)
	ref := newReference(matrixParams, sequences(w.contigs))
	rows := backends(t, w, ref)
	wants := make([]expected, len(w.inputs))
	for i, in := range w.inputs {
		wants[i] = expect(ref, w.contigs, in)
	}
	for i, in := range w.inputs {
		t.Run(in.name, func(t *testing.T) {
			want := wants[i]
			var positional []core.PositionalHit // core/P=1's
			for _, b := range rows {
				got := b.run(t, in, want.segs)
				if got.results != nil && !reflect.DeepEqual(got.results, want.results) {
					t.Errorf("%s: row %s", b.name, firstDiff(got.results, want.results))
				}
				if got.tsv != nil && !bytes.Equal(got.tsv, want.tsv) {
					t.Errorf("%s: TSV line %s", b.name, firstDiff(lines(got.tsv), lines(want.tsv)))
				}
				if got.postings != want.postings {
					t.Errorf("%s: examined %d postings, the reference %d", b.name, got.postings, want.postings)
				}
				for j, pr := range got.probes {
					if !reflect.DeepEqual(pr, want.answers[j]) {
						t.Errorf("%s: segment %d: %+v, reference %+v", b.name, j, pr, want.answers[j])
					}
				}
				if positional == nil {
					positional = got.positional
				} else if got.positional != nil && !reflect.DeepEqual(got.positional, positional) {
					t.Errorf("%s: positional %s", b.name, firstDiff(got.positional, positional))
				}
			}
		})
	}
	metamorphic(t, w, ref, wants)
}
