// Package lint is the repository's custom static-analysis layer:
// jem-vet. It encodes the hot-path, serialization and lifecycle
// invariants that earlier PRs established only in commit messages —
// metrics call sites in hot loops stay allocation-free, serialization
// errors are not dropped, request contexts are propagated, spans are
// ended on every path, and every goroutine has a supervisor.
//
// The package is built purely on the standard library's go/parser,
// go/ast and go/types (no x/tools dependency, honoring the repo's
// no-external-deps constraint). Packages are loaded by shelling out
// to `go list -deps -export -json`, which yields compiled export data
// for every dependency; target packages are then parsed from source
// and type-checked against that export data.
//
// Analyzer registry, annotation syntax (//jem:hotpath), suppression
// syntax (//jem:nolint(<analyzer>)) and the golden-fixture self-test
// harness are documented in docs/STATIC_ANALYSIS.md.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Pass carries one type-checked package through one analyzer run.
// Analyzers report findings through Report; the driver owns
// suppression handling and ordering.
type Pass struct {
	// Fset maps token.Pos values to file positions.
	Fset *token.FileSet
	// Files are the package's parsed non-test source files.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the type-checker's fact tables for Files.
	Info *types.Info

	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Report records a finding at pos. The message should state the
// violated invariant, not just the syntax that triggered it.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named check. Run inspects the package in pass and
// reports diagnostics; it must not retain the pass.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(pass *Pass)
}

// Diagnostic is one finding, positioned and attributed.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
	// Suppressed marks diagnostics silenced by a //jem:nolint comment;
	// the driver keeps them (counted, reportable under -v) instead of
	// dropping them.
	Suppressed bool
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		HotPathAlloc,
		ErrSink,
		CtxFlow,
		SpanEnd,
		GoLeak,
	}
}

// ByName resolves a comma-separated analyzer list ("hotpathalloc,
// errsink") against the registry.
func ByName(names string) ([]*Analyzer, error) {
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// Result is the outcome of running a set of analyzers over a set of
// packages: active diagnostics (sorted by position) and the count of
// findings silenced by //jem:nolint comments, per analyzer.
type Result struct {
	Diagnostics []Diagnostic
	Suppressed  map[string]int
}

// Run applies every analyzer to every package, honors nolint
// suppressions, and returns position-sorted diagnostics.
func Run(analyzers []*Analyzer, pkgs []*Package) Result {
	res := Result{Suppressed: make(map[string]int)}
	for _, pkg := range pkgs {
		nolint := collectNolint(pkg.Fset, pkg.Files)
		for _, a := range analyzers {
			var diags []Diagnostic
			pass := &Pass{
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				analyzer: a,
				diags:    &diags,
			}
			a.Run(pass)
			for _, d := range diags {
				if nolint.suppresses(d.Pos, a.Name) {
					d.Suppressed = true
					res.Suppressed[a.Name]++
				}
				res.Diagnostics = append(res.Diagnostics, d)
			}
		}
	}
	sort.Slice(res.Diagnostics, func(i, j int) bool {
		a, b := res.Diagnostics[i].Pos, res.Diagnostics[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return res
}

// nolintIndex records, per file and line, which analyzers a
// //jem:nolint comment silences (nil value = all analyzers).
type nolintIndex map[string]map[int][]string

const nolintPrefix = "//jem:nolint"

// collectNolint scans every comment in the package for the
// //jem:nolint(<analyzer>[,<analyzer>...]) suppression form. A
// suppression applies to diagnostics on its own line (trailing
// comment) and on the line directly below (leading comment).
func collectNolint(fset *token.FileSet, files []*ast.File) nolintIndex {
	idx := make(nolintIndex)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				if !strings.HasPrefix(text, nolintPrefix) {
					continue
				}
				rest := strings.TrimPrefix(text, nolintPrefix)
				var names []string // nil = suppress every analyzer
				if strings.HasPrefix(rest, "(") {
					end := strings.Index(rest, ")")
					if end < 0 {
						continue // malformed, ignore
					}
					for _, n := range strings.Split(rest[1:end], ",") {
						if n = strings.TrimSpace(n); n != "" {
							names = append(names, n)
						}
					}
				}
				pos := fset.Position(c.Pos())
				m := idx[pos.Filename]
				if m == nil {
					m = make(map[int][]string)
					idx[pos.Filename] = m
				}
				existing, present := m[pos.Line]
				if names == nil || (present && existing == nil) {
					m[pos.Line] = nil // blanket form wins
				} else {
					m[pos.Line] = append(existing, names...)
				}
			}
		}
	}
	return idx
}

func (idx nolintIndex) suppresses(pos token.Position, analyzer string) bool {
	m := idx[pos.Filename]
	if m == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		names, ok := m[line]
		if !ok {
			continue
		}
		if names == nil {
			return true
		}
		for _, n := range names {
			if n == analyzer {
				return true
			}
		}
	}
	return false
}
