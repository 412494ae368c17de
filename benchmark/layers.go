package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"time"

	jem "repro"
	"repro/internal/core"
	"repro/internal/minimizer"
	"repro/internal/obs"
	"repro/internal/seq"
	"repro/internal/shardnet"
	"repro/internal/sketch"
)

// Sizes of the layer suite. They bound the traced run's length, not
// its precision: every figure is a sum over at least a thousand calls.
const (
	walkReads    = 1024    // reads the single-goroutine layer walk maps
	walkReps     = 3       // times it maps them; each figure is the median
	streamReads  = 2048    // reads of one stream-level pass
	walkBatch    = 64      // reads per walk batch (Stream's batch size)
	subjectBases = 2 << 20 // contig bases the subject-side walk sketches
	sessionNews  = 256     // NewSession calls timed
	streamReps   = 5       // repeats of each stream-level pass
	rpcReads     = 128     // reads whose probes are sent as timed QueryShard calls
	fleetReads   = 512     // reads of the remote-versus-local comparison
)

// layerSuite measures every layer on the rig's inputs and index and
// stores the per-layer metrics in vals. It runs on one workload's rig
// but is the same for all five: the layers are properties of the code
// on these inputs, and the workloads differ in which of them dominate.
// d is the length of the serve probe, the only open-ended part.
func layerSuite(r *rig, tr *tracer, vals map[string]float64, d time.Duration) error {
	cm, _, closer, err := core.OpenIndexFile(r.indexPath, core.MemorySpec{Mode: coreMode(r.def.Memory)})
	if err != nil {
		return err
	}
	if closer != nil {
		defer closer.Close()
	}
	cm.Seal()
	// The walk's repeats alternate with the stream-level passes they
	// are summed against, so a drift in the box's speed hits both.
	w, sl := newWalker(r, tr, cm), newStreamLevel(r, tr)
	for rep := 0; rep < max(walkReps, streamReps); rep++ {
		if rep < walkReps {
			if err := w.rep(rep); err != nil {
				return err
			}
		}
		if rep < streamReps {
			if err := sl.rep(rep); err != nil {
				return err
			}
		}
	}
	if err := w.finish(vals); err != nil {
		return err
	}
	sl.finish(vals)
	walkSubject(r, tr, cm, vals)
	if err := buildSide(r, tr, cm.Sketcher().Params(), vals); err != nil {
		return err
	}
	if err := serveProbe(r, tr, vals, d/4); err != nil {
		return err
	}
	return shardnetProbe(r, tr, cm.Sketcher(), vals)
}

func coreMode(m jem.MemoryMode) core.MemoryMode {
	switch m {
	case jem.MemoryHeap:
		return core.MemoryHeap
	case jem.MemoryMMap:
		return core.MemoryMMap
	}
	return core.MemoryAuto
}

// perRead divides a span total by a read count, in nanoseconds.
func perRead(d time.Duration, reads int) float64 { return float64(d.Nanoseconds()) / float64(reads) }

// walker is the state of the single-goroutine layer walk.
type walker struct {
	r      *rig
	tr     *tracer
	cm     *core.Mapper
	sk     *sketch.Sketcher
	mp     minimizer.Params
	segLen int
	lookup func(int, sketch.Word) []sketch.Posting
	sess   *core.Session
	n      int                  // reads walked per repeat
	reps   map[string][]float64 // each layer metric, once per repeat
	// Per-batch scratch, reused so the replays do not measure the
	// allocator.
	tuples [][]minimizer.Tuple
	words  [][]sketch.Word
	segs   [][]byte
	rows   []jem.Mapping
}

// newWalker prepares the layer walk over the first walkReads reads,
// repeated walkReps times: per batch, a span around seq.Reader.Read, a
// parent span around Session.MapSegment on both end segments, replayed
// child spans around the three steps MapSegment is made of
// (AppendExtract, QuerySketchTuples, T lookups) on the same segments,
// and a span around WriteTSV. MapSegment's self time is then scatter,
// lazy-counter counting, gather and best-hit. The replays run right
// after the parent, so they find its data in cache: lookup is measured
// warmer than MapSegment paid for it, and count_self carries the
// difference.
func newWalker(r *rig, tr *tracer, cm *core.Mapper) *walker {
	p := cm.Sketcher().Params()
	w := &walker{
		r: r, tr: tr, cm: cm, sk: cm.Sketcher(), segLen: p.L,
		mp:     minimizer.Params{K: p.K, W: p.W, Order: p.Order},
		sess:   cm.NewSession(),
		n:      min(walkReads, r.nReads),
		reps:   make(map[string][]float64),
		tuples: make([][]minimizer.Tuple, 2*walkBatch),
		words:  make([][]sketch.Word, 2*walkBatch),
	}
	if sf := cm.Sharded(); sf != nil {
		w.lookup = sf.Lookup
	} else {
		w.lookup = cm.Frozen().Lookup
	}
	return w
}

// rep walks the reads once and keeps that repeat's layer metrics.
func (w *walker) rep(rep int) error {
	since := w.tr.mark()
	for from := 0; from < w.n; from += walkBatch {
		if err := w.batch(from, min(from+walkBatch, w.n), rep*w.n+from); err != nil {
			return err
		}
	}
	walkMetrics(w.tr.totals(since), w.n, w.reps)
	return nil
}

// finish reports each walked metric's median over the repeats, and the
// two figures taken outside the walk's spans.
func (w *walker) finish(vals map[string]float64) error {
	for name, v := range w.reps {
		vals[name] = median(v)
	}

	// Parsing again without spans, for the allocation count alone:
	// reading MemStats stops the world, which a timed span must not
	// contain.
	m0 := mallocs()
	recs, err := seq.NewReader(bytes.NewReader(w.r.ds.fastq(0, w.n))).ReadAll()
	if err != nil || len(recs) != w.n {
		return fmt.Errorf("walk: parsed %d of %d reads: %v", len(recs), w.n, err)
	}
	vals["seq.allocs_per_read"] = float64(mallocs()-m0) / float64(w.n)

	t0 := time.Now()
	id := w.tr.begin("core.session_new", -1, -1)
	for i := 0; i < sessionNews; i++ {
		w.sess = w.cm.NewSession()
	}
	w.tr.end(id, count{"sessions", sessionNews})
	vals["core.session_new_us"] = float64(time.Since(t0).Nanoseconds()) / 1e3 / sessionNews
	return nil
}

// batch walks reads [from, to) as operation pass.
func (w *walker) batch(from, to, pass int) error {
	tc := at{tr: w.tr, Parent: -1, Pass: pass}
	tc.Parent = tc.begin("walk.batch")
	defer func() { tc.end(tc.Parent) }()

	input := w.r.ds.fastq(from, to)
	id := tc.begin("seq.parse")
	recs, err := seq.NewReader(bytes.NewReader(input)).ReadAll()
	tc.end(id, count{"reads", int64(len(recs))}, count{"bytes", int64(len(input))})
	if err != nil || len(recs) != to-from {
		return fmt.Errorf("walk: parsed %d of %d reads: %v", len(recs), to-from, err)
	}

	segs, rows := w.segs[:0], w.rows[:0]
	for i := range recs {
		ends, kinds := core.EndSegments(recs[i].Seq, w.segLen)
		for j := range ends {
			end := jem.PrefixEnd
			if kinds[j] == core.Suffix {
				end = jem.SuffixEnd
			}
			segs = append(segs, ends[j])
			rows = append(rows, jem.Mapping{ReadIndex: from + i, ReadID: recs[i].ID, End: end})
		}
	}
	w.segs, w.rows = segs, rows

	var mapped int64
	p0 := w.sess.PostingsScanned()
	ms := tc.begin("core.mapsegment")
	for i, s := range segs {
		if hit, ok := w.sess.MapSegment(s); ok {
			mapped++
			rows[i].Mapped, rows[i].Contig, rows[i].SharedTrials = true, int(hit.Subject), int(hit.Count)
		}
	}
	tc.end(ms, count{"segments", int64(len(segs))}, count{"mapped", mapped}, count{"postings", w.sess.PostingsScanned() - p0})
	in := tc.under(ms)

	t0 := time.Now()
	for i, s := range segs {
		w.tuples[i] = minimizer.AppendExtract(w.tuples[i][:0], s, w.mp)
	}
	dt := time.Since(t0)
	var nTuples, bases int64
	for i, s := range segs {
		nTuples += int64(len(w.tuples[i]))
		bases += int64(len(s))
	}
	in.replay("minimizer.winnow", t0, dt, count{"tuples", nTuples}, count{"bases", bases})

	t0 = time.Now()
	for i := range segs {
		w.words[i] = w.sk.QuerySketchTuples(w.tuples[i])
	}
	in.replay("sketch.trialhash", t0, time.Since(t0))

	var lookups, hits, postings int64
	t0 = time.Now()
	for i := range segs {
		for t, word := range w.words[i] {
			pl := w.lookup(t, word)
			lookups++
			postings += int64(len(pl))
			if len(pl) > 0 {
				hits++
			}
		}
	}
	in.replay("sketch.lookup", t0, time.Since(t0), count{"lookups", lookups}, count{"hits", hits}, count{"postings", postings})

	for i := range rows {
		if rows[i].Mapped {
			rows[i].ContigID = w.cm.Subject(int32(rows[i].Contig)).Name
		}
	}
	id = tc.begin("jem.format")
	err = jem.WriteTSV(io.Discard, rows)
	tc.end(id, count{"rows", int64(len(rows))})
	return err
}

// walkMetrics turns one repeat's span totals over n reads into the
// walk's layer metrics, appending each to its list in reps.
func walkMetrics(tot map[string]*layerTotals, n int, reps map[string][]float64) {
	parse, win, th, lk, msg, fm := tot["seq.parse"], tot["minimizer.winnow"], tot["sketch.trialhash"], tot["sketch.lookup"], tot["core.mapsegment"], tot["jem.format"]
	segments := float64(msg.Counts["segments"])
	for name, v := range map[string]float64{
		"seq.parse_ns_per_read":          perRead(parse.Total, n),
		"seq.parse_mb_per_s":             float64(parse.Counts["bytes"]) / 1e6 / parse.Total.Seconds(),
		"minimizer.winnow_ns_per_read":   perRead(win.Total, n),
		"minimizer.winnow_ns_per_base":   float64(win.Total.Nanoseconds()) / float64(win.Counts["bases"]),
		"minimizer.tuples_per_segment":   float64(win.Counts["tuples"]) / segments,
		"sketch.trialhash_ns_per_read":   perRead(th.Total, n),
		"sketch.lookup_ns_per_read":      perRead(lk.Total, n),
		"sketch.postings_per_read":       float64(lk.Counts["postings"]) / float64(n),
		"sketch.probe_hit_share":         float64(lk.Counts["hits"]) / float64(lk.Counts["lookups"]),
		"core.mapsegment_ns_per_read":    perRead(msg.Total, n),
		"core.count_self_ns_per_read":    perRead(msg.Self, n),
		"core.postings_scanned_per_read": float64(msg.Counts["postings"]) / float64(n),
		"core.mapped_share":              float64(msg.Counts["mapped"]) / segments,
		"jem.format_ns_per_read":         perRead(fm.Total, n),
	} {
		reps[name] = append(reps[name], v)
	}
}

// walkSubject runs the same minimizer and sketch layers the other way:
// whole contigs through AppendExtract and SubjectSketchTuples, as the
// index build does, over the first subjectBases bases of contigs.
func walkSubject(r *rig, tr *tracer, cm *core.Mapper, vals map[string]float64) {
	var (
		sk     = cm.Sketcher()
		p      = sk.Params()
		mp     = minimizer.Params{K: p.K, W: p.W, Order: p.Order}
		tuples []minimizer.Tuple
		bases  int64
		since  = tr.mark()
	)
	for i := 0; i < len(r.ds.Contigs) && bases < subjectBases; i++ {
		s := r.ds.Contigs[i].Seq
		bases += int64(len(s))
		id := tr.begin("minimizer.subject", -1, i)
		tuples = minimizer.AppendExtract(tuples[:0], s, mp)
		tr.end(id, count{"bases", int64(len(s))}, count{"tuples", int64(len(tuples))})
		id = tr.begin("sketch.subject_sketch", -1, i)
		sk.SubjectSketchTuples(tuples)
		tr.end(id, count{"bases", int64(len(s))})
	}
	tot := tr.totals(since)
	vals["minimizer.subject_ns_per_base"] = float64(tot["minimizer.subject"].Total.Nanoseconds()) / float64(bases)
	vals["sketch.subject_sketch_ns_per_base"] = float64(tot["sketch.subject_sketch"].Total.Nanoseconds()) / float64(bases)
}

// buildSide times the steps jem.NewMapper, SaveIndexFile and jem.Open
// are made of, one by one, on the whole contig set.
func buildSide(r *rig, tr *tracer, p sketch.Params, vals map[string]float64) error {
	cm, err := core.NewMapper(p)
	if err != nil {
		return err
	}
	timed := func(name string, fn func() error) (time.Duration, error) {
		t0 := time.Now()
		id := tr.begin(name, -1, -1)
		err := fn()
		tr.end(id)
		return time.Since(t0), err
	}
	d, _ := timed("core.add_subjects", func() error { cm.AddSubjectsParallel(r.ds.Contigs, r.env.Workers); return nil })
	vals["core.add_subjects_s"] = d.Seconds()
	d, _ = timed("sketch.freeze", func() error {
		if r.def.Shards > 1 {
			cm.SealSharded(r.def.Shards, r.env.Workers)
		} else {
			cm.Seal()
		}
		return nil
	})
	vals["sketch.freeze_s"] = d.Seconds()
	vals["sketch.index_mb"] = float64(cm.IndexBytes()) / 1e6

	path := filepath.Join(r.dir, "suite.jem")
	if d, err = timed("core.index_write", func() error { return cm.WriteIndexFile(path) }); err != nil {
		return err
	}
	vals["core.index_write_ms"] = ms(d)
	for _, mode := range []struct {
		name string
		mode core.MemoryMode
	}{{"core.open_heap", core.MemoryHeap}, {"core.open_mmap", core.MemoryMMap}} {
		d, err = timed(mode.name, func() error {
			_, _, closer, err := core.OpenIndexFile(path, core.MemorySpec{Mode: mode.mode})
			if err == nil && closer != nil {
				err = closer.Close()
			}
			return err
		})
		if err != nil {
			return err
		}
		vals[mode.name+"_ms"] = ms(d)
	}
	return nil
}

// streamPassStats is one plain Stream call as the stream-level
// measurements see it.
type streamPassStats struct {
	Stats     jem.Stats
	Wall, CPU time.Duration
}

func timedStream(ctx context.Context, m *jem.Mapper, input []byte, workers int) (streamPassStats, error) {
	c0, t0 := cpuTime(), time.Now()
	st, err := m.Stream(ctx, bytes.NewReader(input), io.Discard, jem.StreamOptions{Workers: workers})
	return streamPassStats{Stats: st, Wall: time.Since(t0), CPU: cpuTime() - c0}, err
}

// streamLevel measures the pipeline around the layers on the mapper
// the workload serves from: the public Stats walls, the Workers=1
// baseline and the scaling over it, the CPU per read the walked layers
// are summed against, and what a request span in the context costs.
// The three kinds of pass are interleaved so drift hits them alike.
type streamLevel struct {
	r                     *rig
	tr                    *tracer
	n                     int
	bare, spanned, single []streamPassStats
}

func newStreamLevel(r *rig, tr *tracer) *streamLevel {
	n := min(streamReads, r.nReads)
	if r.def.Tier == tierFleet {
		n = min(fleetReads, n) // a remote read costs several local ones
	}
	return &streamLevel{r: r, tr: tr, n: n}
}

// rep runs one pass of each kind.
func (sl *streamLevel) rep(rep int) error {
	for _, kind := range []struct {
		name    string
		workers int
		span    bool
		dst     *[]streamPassStats
	}{
		{"jem.stream", sl.r.env.Workers, false, &sl.bare},
		{"jem.stream.spanned", sl.r.env.Workers, true, &sl.spanned},
		{"jem.stream.w1", 1, false, &sl.single},
	} {
		ctx := context.Background()
		if kind.span {
			ctx = obs.ContextWithSpan(ctx, obs.NewSpan("request"))
		}
		id := sl.tr.begin(kind.name, -1, rep)
		ps, err := timedStream(ctx, sl.r.mapper, sl.r.ds.fastq(0, sl.n), kind.workers)
		sl.tr.end(id, count{"reads", int64(ps.Stats.Reads)})
		if err != nil || ps.Stats.Reads != sl.n || len(ps.Stats.ShardsLost) > 0 {
			return fmt.Errorf("stream-level pass answered %d of %d reads, lost shards %v: %v", ps.Stats.Reads, sl.n, ps.Stats.ShardsLost, err)
		}
		*kind.dst = append(*kind.dst, ps)
	}
	return nil
}

// finish reports the medians over the repeats; it needs the walk's
// metrics in vals for the attribution figures.
func (sl *streamLevel) finish(vals map[string]float64) {
	med := func(ps []streamPassStats, f func(streamPassStats) time.Duration) float64 {
		var v []float64
		for _, p := range ps {
			v = append(v, perRead(f(p), sl.n))
		}
		return median(v)
	}
	// paired is the median over the repeats of a's figure over b's: the
	// two passes of a repeat ran back to back, so the box's drift
	// cancels in their ratio.
	paired := func(a, b []streamPassStats, f func(streamPassStats) time.Duration) float64 {
		var v []float64
		for i := range a {
			v = append(v, float64(f(a[i]))/float64(f(b[i])))
		}
		return median(v)
	}
	wall := func(p streamPassStats) time.Duration { return p.Wall }
	cpu := func(p streamPassStats) time.Duration { return p.CPU }
	vals["jem.read_wall_ns_per_read"] = med(sl.bare, func(p streamPassStats) time.Duration { return p.Stats.ReadWall })
	vals["jem.map_wall_ns_per_read"] = med(sl.bare, func(p streamPassStats) time.Duration { return p.Stats.MapWall })
	vals["jem.write_wall_ns_per_read"] = med(sl.bare, func(p streamPassStats) time.Duration { return p.Stats.WriteWall })
	vals["jem.stream_w1_reads_per_s"] = 1e9 / med(sl.single, wall)
	vals["jem.scaling_efficiency"] = paired(sl.single, sl.bare, wall) / float64(sl.r.env.Workers)
	cpuNS := med(sl.bare, cpu)
	vals["jem.stream_cpu_us_per_read"] = cpuNS / 1e3
	vals["obs.request_trace_overhead_pct"] = (paired(sl.spanned, sl.bare, cpu) - 1) * 100
	layers := vals["seq.parse_ns_per_read"] + vals["core.mapsegment_ns_per_read"] + vals["jem.format_ns_per_read"]
	vals["jem.pipeline_self_ns_per_read"] = cpuNS - layers
	vals["jem.layer_sum_over_e2e"] = layers / cpuNS
}

// serveProbe puts the workload's mapper behind the serving tier (on
// serve_http it already is) and runs the closed-loop request load for
// d: what a request costs beyond streaming its reads, the latency
// tail, and how many requests admission control turned away.
func serveProbe(r *rig, tr *tracer, vals map[string]float64, d time.Duration) error {
	if r.httpSrv == nil {
		if err := r.startHTTP(); err != nil {
			return err
		}
	}
	const rejected = "jem_serve_rejected_total"
	rej0 := r.srv.Registry().Snapshot()[rejected]
	var (
		mu        sync.Mutex
		latencyMS []float64
		firstErr  error
		wg        sync.WaitGroup
	)
	per := min(requestReads, r.nReads)
	chunks := r.nReads / per
	c0, deadline := cpuTime(), time.Now().Add(d)
	for c := 0; c < r.env.Workers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for seq := 0; seq == 0 || time.Now().Before(deadline); seq++ {
				pass := seq*r.env.Workers + c
				t0 := time.Now()
				err := r.request((pass%chunks)*per, per, false, at{tr: tr, Parent: -1, Pass: pass})
				mu.Lock()
				latencyMS = append(latencyMS, ms(time.Since(t0)))
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if firstErr != nil {
		return fmt.Errorf("serve probe: %w", firstErr)
	}
	cpuUS := float64((cpuTime() - c0).Microseconds()) / float64(len(latencyMS))
	vals["serve.http_self_us_per_request"] = cpuUS - float64(per)*vals["jem.stream_cpu_us_per_read"]
	vals["serve.request_p99_ms"] = percentile(latencyMS, 99)
	vals["serve.rejected_share"] = (r.srv.Registry().Snapshot()[rejected] - rej0) / float64(len(latencyMS))
	return nil
}

// shardnetProbe measures the wire: the first fleetReads reads streamed
// through a shard fleet and through the same 8-shard index held
// locally (CPU per read of one over the other, with the coordinator's
// own RPC, retry, hedge and loss counters over the remote passes),
// and single QueryShard calls timed on probe sets grouped by shard the
// way a session groups them. On fleet_p8 the fleet is the workload's;
// elsewhere one is started over the workload's index, or over an
// 8-shard build of the same contigs when that index is unsharded.
func shardnetProbe(r *rig, tr *tracer, sk *sketch.Sketcher, vals map[string]float64) error {
	idx, addrs, remote := r.indexPath, r.fleetAddrs, r.mapper
	if r.def.Tier != tierFleet {
		if r.def.Shards <= 1 {
			o := r.opts
			o.Shards = 8
			m, err := jem.NewMapper(r.ds.Contigs, o)
			if err != nil {
				return err
			}
			idx = filepath.Join(r.dir, "probe8.jem")
			if err := m.SaveIndexFile(idx); err != nil {
				return err
			}
		}
		var (
			stop func()
			err  error
		)
		if addrs, stop, err = startFleet(r.dir, idx, fleetServers); err != nil {
			return err
		}
		defer stop()
		if remote, _, err = jem.Open(jem.OpenOptions{IndexPath: idx, ShardServers: addrs, Options: jem.Options{Workers: r.env.Workers}}); err != nil {
			return err
		}
		defer remote.Close()
	}
	local, _, err := jem.Open(jem.OpenOptions{IndexPath: idx, Options: jem.Options{Workers: r.env.Workers, Memory: jem.Memory{Mode: jem.MemoryHeap}}})
	if err != nil {
		return err
	}
	defer local.Close()

	n := min(fleetReads, r.nReads)
	input := r.ds.fastq(0, n)
	// Layouts must not show in the answer: the fleet and the local
	// 8-shard index give the rows of the workload's reference (on
	// hifi_stream that of the unsharded index) and scan the same
	// postings as each other.
	var scanned [2]int64
	for i, side := range []string{"the fleet", "the local 8-shard index"} {
		var out bytes.Buffer
		st, err := []*jem.Mapper{remote, local}[i].Stream(context.Background(), bytes.NewReader(input), &out, jem.StreamOptions{Workers: r.env.Workers})
		if err != nil {
			return fmt.Errorf("shardnet probe: %s: %w", side, err)
		}
		if !bytes.Equal(out.Bytes(), r.ref.rows(0, n)) {
			return fmt.Errorf("shardnet probe: %s maps the reads differently from the reference", side)
		}
		scanned[i] = st.PostingsScanned
	}
	if scanned[0] != scanned[1] {
		return fmt.Errorf("shardnet probe: the fleet scanned %d postings, the same index held locally %d", scanned[0], scanned[1])
	}
	reg := remote.Metrics()
	before := reg.Snapshot()
	var remoteCPU, localCPU []float64
	for rep := 0; rep < streamReps; rep++ {
		for _, side := range []struct {
			name string
			m    *jem.Mapper
			cpu  *[]float64
		}{{"shardnet.stream.remote", remote, &remoteCPU}, {"shardnet.stream.local", local, &localCPU}} {
			id := tr.begin(side.name, -1, rep)
			ps, err := timedStream(context.Background(), side.m, input, r.env.Workers)
			tr.end(id, count{"reads", int64(ps.Stats.Reads)}, count{"postings", ps.Stats.PostingsScanned})
			if err != nil || ps.Stats.Reads != n {
				return fmt.Errorf("%s answered %d of %d reads: %v", side.name, ps.Stats.Reads, n, err)
			}
			*side.cpu = append(*side.cpu, perRead(ps.CPU, n))
		}
	}
	after := reg.Snapshot()
	delta := func(name string) float64 { return after[name] - before[name] }
	rpcs := delta("jem_shardnet_rpcs_total")
	if rpcs == 0 {
		return errors.New("shardnet probe: the remote passes made no RPC")
	}
	vals["shardnet.rpcs_per_read"] = rpcs / float64(streamReps*n)
	vals["shardnet.retries_per_krpc"] = 1000 * delta("jem_shardnet_retries_total") / rpcs
	vals["shardnet.hedges_per_krpc"] = 1000 * delta("jem_shardnet_hedges_total") / rpcs
	vals["shardnet.shards_lost"] = delta("jem_shardnet_shards_lost_total")
	vals["shardnet.remote_over_local"] = median(remoteCPU) / median(localCPU)

	ctx := context.Background()
	coord, err := shardnet.Dial(ctx, addrs, shardnet.Config{}, nil)
	if err != nil {
		return err
	}
	defer coord.Close()
	var (
		shards = coord.NumShards()
		trials = make([][]int32, shards)
		words  = make([][]sketch.Word, shards)
		rpcUS  []float64
		p      = sk.Params()
	)
	for i := 0; i < min(rpcReads, n); i++ {
		ends, _ := core.EndSegments(r.ds.Recs[i].Seq, p.L)
		for _, s := range ends {
			for sd := range trials {
				trials[sd], words[sd] = trials[sd][:0], words[sd][:0]
			}
			for t, w := range sk.QuerySketch(s) {
				sd := sketch.ShardOf(t, w, shards)
				trials[sd], words[sd] = append(trials[sd], int32(t)), append(words[sd], w)
			}
			for sd := range trials {
				if len(trials[sd]) == 0 {
					continue
				}
				t0 := time.Now()
				id := tr.begin("shardnet.query_shard", -1, i)
				_, err := coord.QueryShard(ctx, sd, trials[sd], words[sd])
				tr.end(id, count{"probes", int64(len(trials[sd]))})
				if err != nil {
					return fmt.Errorf("shardnet probe: %w", err)
				}
				rpcUS = append(rpcUS, float64(time.Since(t0).Nanoseconds())/1e3)
			}
		}
	}
	vals["shardnet.rpc_p50_us"] = percentile(rpcUS, 50)
	vals["shardnet.rpc_p95_us"] = percentile(rpcUS, 95)
	return nil
}
