// Command benchmark is the repository's one layered benchmark: five
// workloads over seeded, generated inputs, twelve end-to-end metrics
// measured with tracing off, and per-module layer metrics from a
// separate traced run. See README.md for the glossary and
// ../BENCHMARK.json for the contract the driver holds it to.
//
//	go run -C benchmark . run -seed 1                       # every workload, end-to-end metrics
//	go run -C benchmark . run -workload serve_http -trace 1  # one workload, layer metrics
//	go run -C benchmark . compare A.json B.json              # verdict per workload x metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:], os.Stdout)
	case "compare":
		err = cmdCompare(os.Args[2:], os.Stdout)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  benchmark run [-workload W] [-seed N[,N...]] [-seconds S] [-trace 0|1 [-trace-out F]] [-out F] [-workdir D]
  benchmark compare A.json B.json`)
}

// resultFile is the -out document: where and how the runs were made,
// then every run.
type resultFile struct {
	Schema string       `json:"schema"` // "jem-benchmark/v1"
	Env    envInfo      `json:"env"`
	Runs   []*runResult `json:"runs"`
}

// envInfo records what a result's numbers depend on besides the code.
type envInfo struct {
	Time       string   `json:"time"`
	GoVersion  string   `json:"go_version"`
	NumCPU     int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Workers    int      `json:"workers"`
	Caches     []string `json:"caches"`
	Commit     string   `json:"commit"`
	Seconds    float64  `json:"seconds"`
}

func currentEnv(e *env) envInfo {
	return envInfo{
		Time:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    e.Workers,
		Caches:     cpuCaches(),
		Commit:     gitCommit(),
		Seconds:    e.Seconds,
	}
}

// cpuCaches lists cpu0's caches as the kernel reports them, e.g.
// "L2 Unified 4096K"; empty where sysfs does not say.
func cpuCaches() []string {
	var out []string
	for i := 0; ; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		level, err := os.ReadFile(dir + "level")
		if err != nil {
			return out
		}
		typ, _ := os.ReadFile(dir + "type")  // absent fields just print empty
		size, _ := os.ReadFile(dir + "size") // absent fields just print empty
		out = append(out, strings.TrimSpace(fmt.Sprintf("L%s %s %s",
			strings.TrimSpace(string(level)), strings.TrimSpace(string(typ)), strings.TrimSpace(string(size)))))
	}
}

// gitCommit reads the checked-out commit from ../.git without running
// git; "unknown" outside a git checkout.
func gitCommit() string {
	head, err := os.ReadFile("../.git/HEAD")
	if err != nil {
		return "unknown"
	}
	h := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(h, "ref: "); ok {
		b, err := os.ReadFile("../.git/" + ref)
		if err != nil {
			return "unknown"
		}
		return strings.TrimSpace(string(b))
	}
	return h
}

// cmdRun is `benchmark run`. With -workload it is what the driver
// calls: one workload, one seed, and as the last line of standard
// output one JSON object {correct, attempted, failed, metrics}.
// Without -workload every workload runs in turn and the last line
// carries every metric as workload/metric.
func cmdRun(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload to run (default: all five)")
		seeds    = fs.String("seed", "1", "input seed, or a comma-separated list to repeat the run per seed")
		secs     = fs.Float64("seconds", 10, "length of each timed phase")
		trace    = fs.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: untraced run reporting the end-to-end metrics")
		traceOut = fs.String("trace-out", "", "where a -trace 1 run writes its spans (JSON; default <workdir>/trace-<workload>.json)")
		out      = fs.String("out", "", "write every run's result to this file (JSON, input of compare)")
		workDir  = fs.String("workdir", "../.bench_build", "directory for index files and sockets (go run -C benchmark starts in benchmark/)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *secs <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("bad flag value: -seconds must be positive, -trace 0 or 1")
	}
	if *traceOut != "" && *trace == 0 {
		return fmt.Errorf("-trace-out names the span file of a traced run: add -trace 1")
	}
	defs := workloads
	if *workload != "" {
		def := findWorkload(*workload)
		if def == nil {
			return fmt.Errorf("unknown workload %q", *workload)
		}
		defs = []workloadDef{*def}
	}
	var seedList []int64
	for _, f := range strings.Split(*seeds, ",") {
		n, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return fmt.Errorf("bad -seed %q", f)
		}
		seedList = append(seedList, n)
	}
	if *traceOut != "" && len(defs)*len(seedList) > 1 {
		return fmt.Errorf("-trace-out names one run's span file: give -workload and one seed")
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		return err
	}
	e := &env{Seconds: *secs, Workers: min(runtime.NumCPU(), runtime.GOMAXPROCS(0)), Scale: 1, Setups: setUps, WorkDir: *workDir}
	file := resultFile{Schema: "jem-benchmark/v1", Env: currentEnv(e)}

	for _, seed := range seedList {
		e.Seed = seed
		for i := range defs {
			def := &defs[i]
			if *trace == 0 {
				res, err := runWorkload(def, e, nil)
				if err != nil {
					return err
				}
				file.Runs = append(file.Runs, res)
				printRun(stdout, res, endToEnd)
				continue
			}
			tr := newTracer()
			res, err := runWorkload(def, e, tr)
			if err != nil {
				return err
			}
			file.Runs = append(file.Runs, res)
			printRun(stdout, res, perLayer)
			path := *traceOut
			if path == "" {
				path = filepath.Join(*workDir, "trace-"+def.Name+".json")
			}
			if err := tr.writeFile(path, def.Name, seed); err != nil {
				return err
			}
		}
	}
	if *out != "" {
		buf, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			return err
		}
	}
	return lastLine(stdout, file.Runs, *workload != "")
}

// printRun prints one run's metrics by name with their units.
func printRun(w io.Writer, res *runResult, defs []metricDef) {
	kind := "end-to-end"
	if res.Traced {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "== %s seed=%d %s: %s %s, %d contigs (%.1f Mbp), %d reads/pass, index %.1f MB, %.0f postings/read, %d attempted, %d failed\n",
		res.Workload, res.Seed, kind, res.Input.Dataset, res.Input.SHA256[:12], res.Input.Contigs, res.Input.ContigMbp,
		res.Input.PassReads, res.Input.IndexMB, res.Input.PostingsPerRead, res.Attempted, res.Failed)
	for _, d := range defs {
		m := res.Metrics[d.Name]
		moves := ""
		if d.Moves != "" {
			moves = "   -> " + d.Moves
		}
		fmt.Fprintf(w, "%-36s %16.4f %-6s%s\n", d.Name, m.Value, m.Unit, moves)
	}
	keys := make([]string, 0, len(res.Samples))
	for k := range res.Samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s := res.Samples[k]
		fmt.Fprintf(w, "  samples %-24s n=%-5d median %.4f  quartiles %.4f .. %.4f\n", k, s.N, s.Median, s.Q1, s.Q3)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// lastLine prints the closing JSON object and returns an error when
// any operation failed, so the exit status says so too.
func lastLine(w io.Writer, runs []*runResult, single bool) error {
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: true, Metrics: make(map[string]metricValue)}
	for _, r := range runs {
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		for name, m := range r.Metrics {
			if !single {
				name = r.Workload + "/" + name
			}
			line.Metrics[name] = m
		}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", buf)
	if !line.Correct {
		return fmt.Errorf("%d of %d operations failed", line.Failed, line.Attempted)
	}
	return nil
}
