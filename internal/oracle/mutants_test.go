//go:build mutants

package oracle

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/mutants/survivors.json from this run, keeping its reasons")

// fixedSet is the test set every mutant runs against: the whole suites
// of the packages the defects live in and of the matrix, and, by name,
// the root package's read-set goldens, fleet, index-open and allocation
// tests and the tests that check each go statement's goroutines exit
// and each span begin's spans end. The leak and span tests of the
// other packages enter by name, not as whole suites, so that no
// timing-bound test there can read as a kill.
var fixedSet = [][]string{
	{"./internal/minimizer", "./internal/sketch", "./internal/core", "./internal/oracle", "./internal/shardnet", "./internal/dist"},
	{"-run", "^(TestReadSetGoldens|TestOpenShardServers.*|TestServeShardsLostHeader|TestOpenIndexLoadSpans|TestMapChildSpan|TestOpenMemory.*|TestStreamAllocsPerRead|TestMapStreamMatchesMapReads|TestMapStreamFlushesOnReaderError|TestMapStreamCountsAfterWriteError)$", "."},
	{"-run", "^(TestServerCloseWaitsForServeGoroutine|TestSpanNesting|TestForEachWorkerStateIsolation|TestAssembleDeterministic|TestSimStepTiming|TestRequestSpansEnded)$",
		"./internal/obs", "./internal/parallel", "./internal/assemble", "./internal/mpi", "./internal/serve"},
}

// TestMutants applies each mutant of testdata/mutants/list.json in turn
// through go test -overlay, runs the fixed set against it, and writes
// the kill table, per mutant the top-level tests that failed, to
// mutants_table.md at the repository root. A mutant that does not build
// is an error in the list, never a kill. The run fails on a survivor
// that is neither a lint plant nor given a reason in
// testdata/mutants/survivors.json (id → reason), and on a listed
// survivor that is killed. Run it with make mutants.
func TestMutants(t *testing.T) {
	start := time.Now()
	if failed, err := runSet(""); err != nil || len(failed) > 0 {
		t.Fatalf("the unmodified tree fails the fixed set: %v %v", err, failed)
	}
	var listed map[string]string
	raw, err := os.ReadFile("testdata/mutants/survivors.json")
	if err == nil {
		err = json.Unmarshal(raw, &listed)
	}
	if err != nil {
		t.Fatal(err)
	}
	survivors := map[string]string{}
	mutants := loadMutants(t)
	table := "| mutant | lint | killed by |\n|---|---|---|\n"
	for i, m := range mutants {
		killers, err := runMutant(filepath.Join(t.TempDir(), fmt.Sprint(i)), m)
		verdict := strings.Join(killers, ", ")
		switch {
		case err != nil:
			t.Errorf("%s: an error in the list, not a kill: %v", m.ID, err)
			verdict = "**error**"
		case len(killers) > 0:
		case m.Lint != "":
			verdict = "**survived**, jem-vet " + m.Lint + " catches it"
		default:
			verdict, survivors[m.ID] = "**survived**", listed[m.ID]
			if listed[m.ID] == "" && !*update {
				t.Errorf("%s survived, and survivors.json gives no reason", m.ID)
			}
		}
		t.Logf("%s: %s", m.ID, verdict)
		table += fmt.Sprintf("| %s | %s | %s |\n", m.ID, m.Lint, verdict)
	}
	for id := range listed {
		if _, ok := survivors[id]; !ok && !*update {
			t.Errorf("%s is listed in survivors.json but was killed, or is no mutant", id)
		}
	}
	table = fmt.Sprintf("# Mutant kill table\n\n%d mutants against the fixed set in %v.\n\n%s", len(mutants), time.Since(start).Round(time.Second), table)
	t.Log("\n" + table)
	if err := os.WriteFile(filepath.Join(repoRoot, "mutants_table.md"), []byte(table), 0o644); err != nil {
		t.Fatal(err)
	}
	if *update {
		b, err := json.MarshalIndent(survivors, "", "  ")
		if err == nil {
			err = os.WriteFile("testdata/mutants/survivors.json", append(b, '\n'), 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// runMutant writes m's file and its overlay under base and runs the
// fixed set with the overlay.
func runMutant(base string, m mutant) ([]string, error) {
	src, err := m.apply()
	if err != nil {
		return nil, err
	}
	file, err := filepath.Abs(filepath.Join(repoRoot, m.File))
	if err != nil {
		return nil, err
	}
	overlay, err := json.Marshal(map[string]map[string]string{"Replace": {file: base + ".go"}})
	if err = errors.Join(err, os.WriteFile(base+".go", src, 0o644), os.WriteFile(base+".json", overlay, 0o644)); err != nil {
		return nil, err
	}
	return runSet(base + ".json")
}

// runSet runs the fixed set, with the overlay file when one is given,
// and returns the failed top-level tests as pkg.Test. A test that was
// running when its package's binary crashed counts as failed. A build
// failure, or a package that fails with no test failed or running, is
// an error.
func runSet(overlay string) ([]string, error) {
	var failed []string
	for _, set := range fixedSet {
		args := []string{"test", "-json", "-timeout", "5m"}
		if overlay != "" {
			args = append(args, "-overlay", overlay)
		}
		cmd := exec.Command("go", append(args, set...)...)
		cmd.Dir = repoRoot
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if _, exit := err.(*exec.ExitError); err != nil && !exit {
			return nil, err
		}
		last := map[string]string{} // pkg.Test → its last action: run, pass, fail or skip
		var broken []string
		var buildLog strings.Builder
		for sc := bufio.NewScanner(bytes.NewReader(out)); sc.Scan(); {
			var ev struct{ Action, Package, Test, FailedBuild, Output string }
			if json.Unmarshal(sc.Bytes(), &ev) != nil || strings.Contains(ev.Test, "/") {
				continue
			}
			pkg := ev.Package[strings.LastIndexByte(ev.Package, '/')+1:] + "."
			if pkg == "repro." {
				pkg = "jem."
			}
			switch {
			case ev.Action == "build-output":
				buildLog.WriteString(ev.Output)
			case ev.Action == "build-fail" || ev.FailedBuild != "":
				return nil, fmt.Errorf("does not build: %s%s", stderr.Bytes(), buildLog.String())
			case ev.Test == "" && ev.Action == "fail":
				broken = append(broken, pkg)
			case ev.Test != "" && slices.Contains([]string{"run", "pass", "fail", "skip"}, ev.Action):
				last[pkg+ev.Test] = ev.Action
			}
		}
		for _, pkg := range broken {
			n := len(failed)
			for name, action := range last {
				if strings.HasPrefix(name, pkg) && (action == "fail" || action == "run") {
					failed = append(failed, name)
				}
			}
			if len(failed) == n {
				return nil, fmt.Errorf("%s fails with no test failed or running: %s", pkg, stderr.Bytes())
			}
		}
	}
	slices.Sort(failed)
	return failed, nil
}
