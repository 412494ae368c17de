// Command jem-vet runs the repository's custom static analyzers
// (internal/lint) over package patterns:
//
//	jem-vet ./...                  # whole repo, all analyzers
//	jem-vet -run errsink ./paf.go  # one analyzer (patterns are go list patterns)
//	jem-vet -tests ./...           # analyze _test.go files too
//	jem-vet -json report.json ./...# also write machine-readable findings
//	jem-vet -list                  # what's in the suite
//
// Diagnostics print as file:line:col: message (analyzer) — clickable
// in editors and CI logs. Exit status is 1 when any unsuppressed
// diagnostic is found. The suite is ctxflow, errsink and hotpathalloc,
// each syntactic; span lifecycles and goroutine exits are checked by
// tests instead, each site proven by a plant of `make mutants`. See
// docs/STATIC_ANALYSIS.md for the analyzer catalogue, the keep-or-go
// table, the //jem:hotpath annotation and the //jem:nolint(<analyzer>)
// suppression syntax.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/lint"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list available analyzers and exit")
		run      = flag.String("run", "", "comma-separated analyzer names to run (default: all)")
		verbose  = flag.Bool("v", false, "also print suppressed diagnostics and per-analyzer totals")
		tests    = flag.Bool("tests", false, "also analyze _test.go files (in-package and external test packages)")
		jsonPath = flag.String("json", "", "write machine-readable diagnostics (including suppressed) to this file")
	)
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := lint.All()
	if *run != "" {
		var err error
		analyzers, err = lint.ByName(*run)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	load := lint.Load
	if *tests {
		load = lint.LoadTests
	}
	pkgs, err := load(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	res := lint.Run(analyzers, pkgs)
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, cwd, res); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	active := 0
	for _, d := range res.Diagnostics {
		if d.Suppressed {
			if *verbose {
				fmt.Printf("%s [suppressed]\n", relativize(cwd, d))
			}
			continue
		}
		active++
		fmt.Println(relativize(cwd, d))
	}
	if n := total(res.Suppressed); n > 0 || *verbose {
		fmt.Fprintf(os.Stderr, "jem-vet: %d issue(s), %d suppressed by %s%s\n",
			active, n, "//jem:nolint", suppressionBreakdown(res.Suppressed))
	}
	if active > 0 {
		os.Exit(1)
	}
}

func total(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

func suppressionBreakdown(m map[string]int) string {
	if len(m) == 0 {
		return ""
	}
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, name := range names {
		parts[i] = fmt.Sprintf("%s:%d", name, m[name])
	}
	return " (" + strings.Join(parts, " ") + ")"
}

// relativize shortens absolute diagnostic paths to cwd-relative ones
// so CI logs and editors get clickable file:line:col prefixes.
func relativize(cwd string, d lint.Diagnostic) string {
	s := d.String()
	if rel, ok := relPath(cwd, d.Pos.Filename); ok {
		s = fmt.Sprintf("%s:%d:%d: %s (%s)", rel, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
	}
	return s
}

func relPath(cwd, filename string) (string, bool) {
	rel, err := filepath.Rel(cwd, filename)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", false
	}
	return rel, true
}

// jsonDiagnostic is the machine-readable form of one finding, written
// by -json for CI artifacts and downstream tooling. Suppressed
// findings are included (marked) so a report consumer can audit the
// //jem:nolint inventory without re-running the analysis.
type jsonDiagnostic struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

func writeJSON(path, cwd string, res lint.Result) error {
	out := make([]jsonDiagnostic, 0, len(res.Diagnostics))
	for _, d := range res.Diagnostics {
		file := d.Pos.Filename
		if rel, ok := relPath(cwd, file); ok {
			file = rel
		}
		out = append(out, jsonDiagnostic{
			File:       file,
			Line:       d.Pos.Line,
			Col:        d.Pos.Column,
			Analyzer:   d.Analyzer,
			Message:    d.Message,
			Suppressed: d.Suppressed,
		})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
