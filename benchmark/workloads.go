package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	jem "repro"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/shardnet"
	"repro/internal/truth"
)

// tier is what stands between a workload's caller and the index.
type tier int

const (
	tierStream tier = iota // Mapper.Stream over a local index
	tierBuild              // the operation is the index life cycle itself
	tierHTTP               // serve.Server over loopback HTTP
	tierFleet              // shardnet servers behind a coordinator
)

// workloadDef fixes one workload: which inputs, which index layout,
// which serving tier. Why is the reason it exists (BENCHMARK.json
// repeats it).
type workloadDef struct {
	Name   string
	Why    string
	Spec   datasetSpec
	Shards int
	Memory jem.MemoryMode
	Tier   tier
	// OpReads is the number of reads of one operation: one Stream call
	// (stream and fleet tiers), one request (HTTP), one cycle's probe
	// (build). Operations take the dataset's reads chunk by chunk and
	// wrap around, so a few tens of milliseconds of work repeat often
	// enough for a steady median and a p95 with samples beyond it.
	OpReads int
	// MaxReads caps the reads the workload uses (0 = the whole dataset).
	MaxReads int
}

const (
	// requestReads is the number of reads in one serve_http request:
	// small enough that per-request cost is a visible share of it.
	requestReads = 16
	// fleetServers is the number of in-process shard servers of
	// fleet_p8; server i owns the shards ≡ i mod fleetServers.
	fleetServers = 4
	// warmupPasses are run, checked and discarded in every set-up.
	warmupPasses = 2
	// setUps is how many times a run sets the system up; setup_s is the
	// median, as the driver's contract asks.
	setUps = 4
	// A set-up opens the saved index openReps times, closing it again in
	// between, so that index_open_over_copy rests on setUps × openReps
	// opens whatever their speed. setup_s counts the last open only.
	openReps = 8
	// copyBytes is the yardstick every open is measured against: just
	// before it, this many bytes of the FASTQ are copied into fresh
	// memory. An open is memory traffic (read, checksum or decode the
	// index into fresh pages), and on a shared box the speed of memory
	// traffic moves by a third for minutes at a time while arithmetic
	// does not move at all; the copy moves with it (README.md,
	// Steadiness).
	copyBytes = 16 << 20
)

var workloads = []workloadDef{
	{
		Name: "hifi_stream", Spec: specD10, Shards: 0, Memory: jem.MemoryHeap, Tier: tierStream, OpReads: 1024,
		Why: "10 kbp reads, unsharded heap index: the paper's query phase; parsing and winnowing dominate, lookups are cheap",
	},
	{
		Name: "ends_repeat", Spec: specD34r, Shards: 8, Memory: jem.MemoryHeap, Tier: tierStream, OpReads: 512,
		Why: "2 kbp reads, 8-shard index far larger than L2 over 12 high-copy repeat families: lookup and counting dominate, parsing is negligible",
	},
	{
		Name: "index_build", Spec: specD10, Shards: 8, Memory: jem.MemoryMMap, Tier: tierBuild, OpReads: 256,
		Why: "build, save, reopen by mmap and probe: the same minimizer and sketch layers on the subject side, so a query-side gain that costs the build shows",
	},
	{
		Name: "serve_http", Spec: specD10, Shards: 8, Memory: jem.MemoryMMap, Tier: tierHTTP, OpReads: requestReads,
		Why: "closed loop of 16-read POSTs to the serving tier over an mmap index: per-request cost (HTTP, admission, sessions, tracing) is a visible share",
	},
	{
		Name: "fleet_p8", Spec: specD10, Shards: 8, Memory: jem.MemoryHeap, Tier: tierFleet, OpReads: 256, MaxReads: 2048,
		Why: "8 shards behind 4 shard servers on unix sockets: per-RPC fixed cost dominates, so batching and coordinator changes show here only",
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// env is what every workload of one invocation shares.
type env struct {
	Seed    int64
	Seconds float64
	// Workers is the worker, client and connection count: never more
	// than the cores the process may use.
	Workers int
	// Scale shrinks the datasets and Setups is how many times the
	// system is set up. The command always runs at 1 and setUps, so that
	// result files are comparable without reading their settings; only
	// the toy-size smoke test sets them lower.
	Scale   float64
	Setups  int
	WorkDir string
}

// reference is the expected output for the workload's reads, produced
// once per run by the freshly built heap mapper, operation by
// operation, and compared against whatever the workload's tier serves.
type reference struct {
	// TSV is the table for all reads: one header, then every row.
	TSV []byte
	// RowOff[i] is the offset in TSV of read i's first row;
	// RowOff[reads] is len(TSV). Rows of a read are contiguous because
	// Stream writes in input order.
	RowOff []int
	// Postings[c] is Stats.PostingsScanned of operation c's reads.
	Postings []int64
	Quality  truth.Confusion
}

const tsvHeader = "read_id\tend\tcontig_id\tshared_trials\n"

// rows returns the TSV table (with header) for reads [from, to).
func (r *reference) rows(from, to int) []byte {
	out := make([]byte, 0, len(tsvHeader)+r.RowOff[to]-r.RowOff[from])
	out = append(out, tsvHeader...)
	return append(out, r.TSV[r.RowOff[from]:r.RowOff[to]]...)
}

// setupPhases are the timed parts of one system set-up; their sum is
// one setup_s sample. Generating the inputs and computing the
// reference are the benchmark's own work and are not in it.
type setupPhases struct {
	Build, Save, Open, Start, Warm time.Duration
}

func (p setupPhases) total() time.Duration { return p.Build + p.Save + p.Open + p.Start + p.Warm }

// rig is one set-up system, ready for timed operations.
type rig struct {
	def  *workloadDef
	env  *env
	ds   *dataset
	opts jem.Options
	// opReads is def.OpReads, or less on a scaled-down dataset; nReads
	// is how many reads the workload uses: whole operations only, so
	// every operation does the same amount of work.
	opReads, nReads int
	ref             *reference

	dir       string
	indexPath string
	// mapper is what operations query: the saved index reopened in
	// def.Memory mode, or the fleet-backed mapper. The mapper NewMapper
	// built is dropped once it is saved (and, on the first set-up, has
	// produced the reference); indexBytes remembers its size.
	mapper     *jem.Mapper
	indexBytes int64

	fleetAddrs []string
	stopFleet  func()
	srv        *serve.Server
	httpSrv    *http.Server
	httpDone   chan struct{}
	baseURL    string
	client     *http.Client

	phases setupPhases
	// opens are the durations of all the opens of this set-up and
	// copies those of the copy made just before each.
	opens, copies []time.Duration
}

// mapperOptions are the paper's defaults plus the workload's layout.
func (e *env) mapperOptions(def *workloadDef) jem.Options {
	o := jem.DefaultOptions()
	o.Shards = def.Shards
	o.Workers = e.Workers
	return o
}

// setUp builds, saves and reopens the index, starts the serving tier,
// and runs the checked warm-up passes. ref may be nil on the first
// set-up of a run; the reference is then produced from the fresh
// mapper (untimed) and returned in the rig.
func setUp(def *workloadDef, e *env, ds *dataset, ref *reference, id int) (_ *rig, err error) {
	r := &rig{def: def, env: e, ds: ds, opts: e.mapperOptions(def), ref: ref}
	r.nReads = ds.reads()
	if def.MaxReads > 0 && r.nReads > def.MaxReads {
		r.nReads = def.MaxReads
	}
	// A scaled-down dataset gets smaller operations, so that at least
	// two of them fit.
	for r.opReads = def.OpReads; r.opReads > 1 && r.opReads > r.nReads/2; {
		r.opReads /= 2
	}
	if r.nReads -= r.nReads % r.opReads; r.nReads == 0 {
		return nil, fmt.Errorf("dataset %s has no reads", ds.Spec.Name)
	}
	r.dir = filepath.Join(e.WorkDir, fmt.Sprintf("r%d-%s-%d", os.Getpid(), def.Name, id))
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			r.tearDown()
		}
	}()
	r.indexPath = filepath.Join(r.dir, "index.jem")

	// Collecting before the two allocation-heavy phases puts every
	// set-up's build and open in the same heap state; the collections
	// themselves are the benchmark's and are not timed.
	runtime.GC()
	t0 := time.Now()
	built, err := jem.NewMapper(ds.Contigs, r.opts)
	if err != nil {
		return nil, err
	}
	r.phases.Build = time.Since(t0)
	r.indexBytes = built.IndexBytes()

	t0 = time.Now()
	if err = built.SaveIndexFile(r.indexPath); err != nil {
		return nil, err
	}
	r.phases.Save = time.Since(t0)

	if r.ref == nil {
		if r.ref, err = makeReference(r, built); err != nil {
			return nil, err
		}
	}
	built = nil // only the reopened index is held from here on
	runtime.GC()

	for i := 0; i < openReps; i++ {
		if i > 0 {
			r.closeIndex()
			runtime.GC() // so does every copy
		}
		t0 = time.Now()
		yard := append([]byte(nil), ds.FASTQ[:min(copyBytes, len(ds.FASTQ))]...)
		r.copies = append(r.copies, time.Since(t0))
		runtime.KeepAlive(yard)
		runtime.GC() // the copy is garbage by now: every open starts from the same collected heap

		t0 = time.Now()
		if err = r.open(); err != nil {
			return nil, err
		}
		r.phases.Open = time.Since(t0)
		r.opens = append(r.opens, r.phases.Open)
	}

	t0 = time.Now()
	if def.Tier == tierHTTP {
		if err = r.startHTTP(); err != nil {
			return nil, err
		}
	}
	r.phases.Start = time.Since(t0)

	t0 = time.Now()
	for p := 0; p < warmupPasses; p++ {
		if err = r.warmPass(); err != nil {
			return nil, fmt.Errorf("warm-up pass %d: %w", p+1, err)
		}
	}
	r.phases.Warm = time.Since(t0)
	return r, nil
}

// makeReference streams the workload's reads through the fresh heap
// mapper one operation at a time, joins the tables, indexes the rows
// by read and scores them against the cut coordinates. A score under
// the floors fails the run.
func makeReference(r *rig, built *jem.Mapper) (*reference, error) {
	ref := &reference{TSV: []byte(tsvHeader)}
	var out bytes.Buffer
	for from := 0; from < r.nReads; from += r.opReads {
		out.Reset()
		st, err := built.Stream(context.Background(), bytes.NewReader(r.ds.fastq(from, from+r.opReads)), &out, jem.StreamOptions{Workers: r.env.Workers})
		switch {
		case err != nil:
			return nil, fmt.Errorf("reference pass: %w", err)
		case st.Reads != r.opReads:
			return nil, fmt.Errorf("reference pass answered %d of %d reads", st.Reads, r.opReads)
		case !bytes.HasPrefix(out.Bytes(), []byte(tsvHeader)):
			return nil, errors.New("reference pass: TSV header missing")
		}
		ref.TSV = append(ref.TSV, out.Bytes()[len(tsvHeader):]...)
		ref.Postings = append(ref.Postings, st.PostingsScanned)
	}
	// Walk rows and reads together: every read has one or two rows,
	// each starting with its id and a tab.
	pos := len(tsvHeader)
	for i := 0; i < r.nReads; i++ {
		ref.RowOff = append(ref.RowOff, pos)
		prefix := append([]byte(r.ds.Recs[i].ID), '\t')
		n := 0
		for bytes.HasPrefix(ref.TSV[pos:], prefix) {
			nl := bytes.IndexByte(ref.TSV[pos:], '\n')
			if nl < 0 {
				return nil, errors.New("reference pass: truncated row")
			}
			pos += nl + 1
			n++
		}
		if n == 0 {
			return nil, fmt.Errorf("reference pass: no row for read %s", r.ds.Recs[i].ID)
		}
	}
	if pos != len(ref.TSV) {
		return nil, errors.New("reference pass: rows beyond the last read")
	}
	ref.RowOff = append(ref.RowOff, pos)
	var err error
	if ref.Quality, err = r.ds.score(ref.TSV, r.opts); err != nil {
		return nil, err
	}
	if rc, pr := ref.Quality.Recall(), ref.Quality.Precision(); rc < recallFloor || pr < precisionFloor {
		return nil, fmt.Errorf("quality under the floor: recall %.4f (floor %.2f), precision %.4f (floor %.2f)", rc, recallFloor, pr, precisionFloor)
	}
	return ref, nil
}

// open brings up what operations query: the shard fleet on fleet_p8,
// then the mapper over the saved index.
func (r *rig) open() (err error) {
	if r.def.Tier == tierFleet {
		if r.fleetAddrs, r.stopFleet, err = startFleet(r.dir, r.indexPath, fleetServers); err != nil {
			return err
		}
	}
	r.mapper, err = r.openIndex(r.indexPath)
	return err
}

// openIndex opens the index at path the way the workload serves it (its
// memory mode, or against the rig's fleet) and maps read 0 through it,
// so an open ends at the first answered read. A mapper whose first
// read differs from the reference is closed and not returned.
func (r *rig) openIndex(path string) (*jem.Mapper, error) {
	m, _, err := jem.Open(jem.OpenOptions{
		IndexPath:    path,
		Contigs:      r.ds.Contigs,
		ShardServers: r.fleetAddrs,
		Options:      jem.Options{Workers: r.env.Workers, Memory: jem.Memory{Mode: r.def.Memory}},
	})
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	if _, err = m.Stream(context.Background(), bytes.NewReader(r.ds.fastq(0, 1)), &out, jem.StreamOptions{Workers: 1}); err != nil {
		err = fmt.Errorf("first read: %w", err)
	} else if !bytes.Equal(out.Bytes(), r.ref.rows(0, 1)) {
		err = errors.New("first read: rows differ from the reference")
	}
	if err != nil {
		_ = m.Close() // the first read's error is the one to report
		return nil, err
	}
	return m, nil
}

// startFleet serves the index at idx from n in-process shardnet
// servers on unix sockets under dir (server i owns the shards ≡ i mod
// n), the same stack cmd/jem-shardd wraps minus the process boundary.
func startFleet(dir, idx string, n int) (addrs []string, stop func(), err error) {
	var servers []*shardnet.Server
	stop = func() {
		for _, s := range servers {
			_ = s.Close() // closing listeners of a fleet being discarded
		}
	}
	for i := 0; i < n; i++ {
		tables, meta, err := core.ReadShardSubsetFile(idx, func(sd int) bool { return sd%n == i })
		if err != nil {
			stop()
			return nil, nil, err
		}
		srv, err := shardnet.NewServer(tables, shardnet.Info{
			Shards:      meta.Shards,
			T:           meta.T,
			NumSubjects: meta.NumSubjects,
			ManifestCRC: meta.ManifestCRC,
		})
		if err != nil {
			stop()
			return nil, nil, err
		}
		ln, err := net.Listen("unix", filepath.Join(dir, fmt.Sprintf("s%d.sock", i)))
		if err != nil {
			stop()
			return nil, nil, err
		}
		srv.Start(ln)
		servers = append(servers, srv)
		addrs = append(addrs, "unix:"+ln.Addr().String())
	}
	return addrs, stop, nil
}

// startHTTP puts the mapper behind a default serve.Server on a
// loopback port.
func (r *rig) startHTTP() error {
	r.srv = serve.New(serve.Config{})
	r.srv.AddIndex("bench", r.mapper)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	r.httpSrv = &http.Server{Handler: r.srv.Handler()}
	r.httpDone = make(chan struct{})
	go func() {
		defer close(r.httpDone)
		_ = r.httpSrv.Serve(ln) // returns ErrServerClosed at tearDown
	}()
	r.baseURL = "http://" + ln.Addr().String()
	r.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: r.env.Workers}}
	return nil
}

// tearDown stops everything the rig started, waits for it, and removes
// the rig's files.
func (r *rig) tearDown() {
	if r.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := r.httpSrv.Shutdown(ctx); err != nil {
			_ = r.httpSrv.Close() // a connection outlived the grace period
		}
		cancel()
		<-r.httpDone
		r.client.CloseIdleConnections()
	}
	r.closeIndex()
	_ = os.RemoveAll(r.dir) // best effort; the work dir is git-ignored
}

// closeIndex undoes open: the mapper, then the fleet behind it.
func (r *rig) closeIndex() {
	if r.mapper != nil {
		_ = r.mapper.Close() // releasing a mapping or pools being discarded
		r.mapper = nil
	}
	if r.stopFleet != nil {
		r.stopFleet()
		r.stopFleet = nil
	}
}

// clients is how many callers issue operations at once: the stream
// and build workloads have one caller whose pipeline uses Workers
// goroutines; serve_http has Workers closed-loop clients.
func (r *rig) clients() int {
	if r.def.Tier == tierHTTP {
		return r.env.Workers
	}
	return 1
}

// opResult is what one operation reports to the harness. Attempted
// and Failed count reads for the stream and fleet workloads, requests
// for serve_http and cycles for index_build.
type opResult struct {
	Reads             int
	Attempted, Failed int
	// Build is set by index_build cycles.
	Build time.Duration
}

// at places an operation's spans in a trace: under span Parent, as
// part of operation Pass. The untraced value is noTrace, whose nil
// tracer makes every call a no-op.
type at struct {
	tr           *tracer
	Parent, Pass int
}

var noTrace = at{nil, -1, -1}

func (a at) begin(name string) int       { return a.tr.begin(name, a.Parent, a.Pass) }
func (a at) end(id int, counts ...count) { a.tr.end(id, counts...) }
func (a at) under(parent int) at         { return at{a.tr, parent, a.Pass} }
func (a at) replay(name string, start time.Time, d time.Duration, counts ...count) {
	a.tr.replay(name, a.Parent, a.Pass, start, d, counts...)
}

// ops is the number of distinct operations the reads divide into.
func (r *rig) ops() int { return r.nReads / r.opReads }

// warmPass runs every distinct operation once with every output byte
// checked. An index_build cycle probes all the reads at once.
func (r *rig) warmPass() error {
	if r.def.Tier == tierBuild {
		_, err := r.cycle(r.nReads, noTrace)
		return err
	}
	for c := 0; c < r.ops(); c++ {
		if err := r.runOp(c, true, noTrace); err != nil {
			return err
		}
	}
	return nil
}

// runOp runs distinct operation c on the stream, fleet and HTTP tiers.
func (r *rig) runOp(c int, full bool, tc at) error {
	if r.def.Tier == tierHTTP {
		return r.request(c*r.opReads, r.opReads, full, tc)
	}
	return r.streamOp(c, full, tc)
}

// op runs timed operation seq of client c; operations walk the reads
// chunk by chunk and wrap around. An operation that returns an error
// answered nothing: everything it attempted counts as failed.
func (r *rig) op(c, seq int, tc at) (opResult, error) {
	var (
		res = opResult{Reads: r.opReads, Attempted: 1}
		err error
	)
	switch r.def.Tier {
	case tierBuild:
		res, err = r.cycle(r.opReads, tc)
		res.Attempted = 1
	case tierHTTP:
		err = r.runOp((seq*r.clients()+c)%r.ops(), false, tc)
	default:
		res.Attempted = r.opReads
		err = r.runOp(seq%r.ops(), false, tc)
	}
	if err != nil {
		res.Reads, res.Failed = 0, res.Attempted
	}
	return res, err
}

// countWriter counts bytes and discards them: the timed phase checks
// output size only, the warm-up passes check every byte.
type countWriter struct{ n int }

func (w *countWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// streamOp streams operation c's reads through the mapper. A stream
// error, a missing read, a lost shard, a posting count or output that
// differs from the reference all fail it.
func (r *rig) streamOp(c int, full bool, tc at) error {
	var (
		buf      bytes.Buffer
		cw       countWriter
		w        io.Writer = &cw
		from, to           = c * r.opReads, (c + 1) * r.opReads
	)
	if full {
		w = &buf
	}
	start := time.Now()
	id := tc.begin("jem.stream")
	st, err := r.mapper.Stream(context.Background(), bytes.NewReader(r.ds.fastq(from, to)), w, jem.StreamOptions{Workers: r.env.Workers})
	tc.end(id, count{"reads", int64(st.Reads)}, count{"postings", st.PostingsScanned})
	// The pipeline's own phase walls (public Stats) as children: they
	// overlap in time and sum over workers, so they are replayed, not
	// nested.
	in := tc.under(id)
	in.replay("jem.stream.read", start, st.ReadWall)
	in.replay("jem.stream.map", start, st.MapWall)
	in.replay("jem.stream.write", start, st.WriteWall)
	want := len(tsvHeader) + r.ref.RowOff[to] - r.ref.RowOff[from]
	switch {
	case err != nil:
		return err
	case st.Reads != to-from:
		return fmt.Errorf("answered %d of %d reads", st.Reads, to-from)
	case len(st.ShardsLost) > 0:
		return fmt.Errorf("degraded answer: shards %v lost", st.ShardsLost)
	case st.PostingsScanned != r.ref.Postings[c]:
		return fmt.Errorf("scanned %d postings, reference scanned %d", st.PostingsScanned, r.ref.Postings[c])
	case full && !bytes.Equal(buf.Bytes(), r.ref.rows(from, to)):
		return errors.New("TSV differs from the reference")
	case !full && cw.n != want:
		return fmt.Errorf("wrote %d TSV bytes, reference has %d", cw.n, want)
	}
	return nil
}

// request POSTs reads [from, from+n) and checks the answer:
// status 200, no lost shard, and the reference's rows for those reads
// (every byte in a warm-up pass, the length in the timed phase).
func (r *rig) request(from, n int, full bool, tc at) error {
	to := from + n
	id := tc.begin("serve.request")
	defer tc.end(id, count{"reads", int64(to - from)})
	resp, err := r.client.Post(r.baseURL+"/v1/map", "application/octet-stream", bytes.NewReader(r.ds.fastq(from, to)))
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // fully read; nothing left to lose
	switch {
	case err != nil:
		return fmt.Errorf("reading response: %w", err)
	case resp.StatusCode != http.StatusOK:
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	case resp.Header.Get("X-JEM-Shards-Lost") != "":
		return fmt.Errorf("degraded answer: shards %s lost", resp.Header.Get("X-JEM-Shards-Lost"))
	}
	want := len(tsvHeader) + r.ref.RowOff[to] - r.ref.RowOff[from]
	if len(body) != want {
		return fmt.Errorf("response has %d bytes, reference rows have %d", len(body), want)
	}
	if full && !bytes.Equal(body, r.ref.rows(from, to)) {
		return errors.New("response rows differ from the reference")
	}
	return nil
}

// cycle is one index_build operation: build the 8-shard index, save
// it, reopen it by mmap, map the first probe reads through it and
// compare with the reference, close.
func (r *rig) cycle(probe int, tc at) (res opResult, err error) {
	probe = min(probe, r.nReads)
	path := filepath.Join(r.dir, "cycle.jem")

	id := tc.begin("jem.newmapper")
	t0 := time.Now()
	m, err := jem.NewMapper(r.ds.Contigs, r.opts)
	res.Build = time.Since(t0)
	tc.end(id)
	if err != nil {
		return res, err
	}

	id = tc.begin("jem.saveindex")
	err = m.SaveIndexFile(path)
	tc.end(id)
	if err != nil {
		return res, err
	}

	id = tc.begin("jem.open")
	opened, err := r.openIndex(path)
	tc.end(id)
	if err != nil {
		return res, err
	}
	defer func() {
		if cerr := opened.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("closing reopened index: %w", cerr)
		}
	}()

	id = tc.begin("jem.stream")
	var out bytes.Buffer
	st, err := opened.Stream(context.Background(), bytes.NewReader(r.ds.fastq(0, probe)), &out, jem.StreamOptions{Workers: r.env.Workers})
	tc.end(id, count{"reads", int64(st.Reads)}, count{"postings", st.PostingsScanned})
	switch {
	case err != nil:
		return res, err
	case st.Reads != probe:
		return res, fmt.Errorf("probe answered %d of %d reads", st.Reads, probe)
	case len(st.ShardsLost) > 0:
		return res, fmt.Errorf("degraded answer: shards %v lost", st.ShardsLost)
	case !bytes.Equal(out.Bytes(), r.ref.rows(0, probe)):
		return res, errors.New("reopened index maps the probe differently from the fresh mapper")
	}
	res.Reads = probe
	return res, nil
}
