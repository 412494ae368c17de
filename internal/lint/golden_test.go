package lint

// The golden self-test harness: every analyzer has a fixture package
// under testdata/src/<name> whose offending lines carry
// `// want `+"`regex`"+`` comments. The harness type-checks the
// fixture, runs the analyzer, and diffs produced diagnostics against
// the expectations in both directions — a missing diagnostic (the
// analyzer went blind) and an unexpected one (a false positive) both
// fail. TestFixturesCatchViolations proves the harness has teeth by
// running each fixture with its analyzer disabled and requiring the
// diff to be non-empty.

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// fixtureWant is one `// want` expectation.
type fixtureWant struct {
	file    string // base name
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile("// want (.+)$")

// parseWants scans the fixture sources for `// want` comments. Each
// expectation is one or more Go-quoted strings (interpreted as
// regexps) after the marker.
func parseWants(t *testing.T, dir string) []*fixtureWant {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*fixtureWant
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for lineNo := 1; sc.Scan(); lineNo++ {
			m := wantRE.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			for _, lit := range splitQuoted(t, e.Name(), lineNo, m[1]) {
				re, err := regexp.Compile(lit)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", e.Name(), lineNo, lit, err)
				}
				wants = append(wants, &fixtureWant{file: e.Name(), line: lineNo, re: re})
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return wants
}

// splitQuoted extracts consecutive Go string literals ("..." or
// `...`) from the text after a want marker.
func splitQuoted(t *testing.T, file string, line int, s string) []string {
	t.Helper()
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		if s[0] != '"' && s[0] != '`' {
			break // trailing prose after the literals is ignored
		}
		quote := s[0]
		end := strings.IndexByte(s[1:], quote)
		if end < 0 {
			t.Fatalf("%s:%d: unterminated want literal %q", file, line, s)
		}
		lit, err := strconv.Unquote(s[:end+2])
		if err != nil {
			t.Fatalf("%s:%d: bad want literal %q: %v", file, line, s[:end+2], err)
		}
		out = append(out, lit)
		s = strings.TrimSpace(s[end+2:])
	}
	if len(out) == 0 {
		t.Fatalf("%s:%d: want marker with no quoted regexp", file, line)
	}
	return out
}

// diffFixture compares a run's unsuppressed diagnostics against the
// wants and returns human-readable mismatches (empty = pass).
// Suppressed diagnostics neither satisfy wants nor count as
// unexpected: a //jem:nolint'd line is, by definition, silent.
func diffFixture(res Result, wants []*fixtureWant) []string {
	var problems []string
	for _, d := range res.Diagnostics {
		if d.Suppressed {
			continue
		}
		base := filepath.Base(d.Pos.Filename)
		matched := false
		for _, w := range wants {
			if !w.matched && w.file == base && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			problems = append(problems, fmt.Sprintf("unexpected diagnostic at %s:%d: %s (%s)",
				base, d.Pos.Line, d.Message, d.Analyzer))
		}
	}
	for _, w := range wants {
		if !w.matched {
			problems = append(problems, fmt.Sprintf("missing diagnostic at %s:%d matching %q",
				w.file, w.line, w.re))
		}
	}
	sort.Strings(problems)
	return problems
}

func runFixture(t *testing.T, analyzers []*Analyzer, name string) (Result, []*fixtureWant) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	pkg, err := LoadDir(".", dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return Run(analyzers, []*Package{pkg}), parseWants(t, dir)
}

// analyzerFixtures pairs each analyzer with its fixture package.
func analyzerFixtures() map[string]*Analyzer {
	m := make(map[string]*Analyzer)
	for _, a := range All() {
		m[a.Name] = a
	}
	return m
}

func TestAnalyzerFixtures(t *testing.T) {
	for name, a := range analyzerFixtures() {
		t.Run(name, func(t *testing.T) {
			res, wants := runFixture(t, []*Analyzer{a}, name)
			if len(wants) == 0 {
				t.Fatalf("fixture %s declares no expectations; every analyzer must demonstrate ≥1 caught violation", name)
			}
			for _, p := range diffFixture(res, wants) {
				t.Error(p)
			}
		})
	}
}

// TestFixturesCatchViolations runs every fixture with its analyzer
// DISABLED and requires the harness to notice the missing
// diagnostics — i.e. the fixtures genuinely depend on their analyzer
// and would catch a silently broken or unregistered one.
func TestFixturesCatchViolations(t *testing.T) {
	for name := range analyzerFixtures() {
		t.Run(name, func(t *testing.T) {
			res, wants := runFixture(t, nil /* no analyzers */, name)
			if problems := diffFixture(res, wants); len(problems) == 0 {
				t.Fatalf("fixture %s passes with its analyzer disabled; it demonstrates nothing", name)
			}
		})
	}
}

func TestNolintSuppression(t *testing.T) {
	res, wants := runFixture(t, []*Analyzer{ErrSink}, "nolint")
	for _, p := range diffFixture(res, wants) {
		t.Error(p)
	}
	// Four sites in the fixture are silenced: trailing, leading,
	// blanket, and list forms. The wrong-analyzer form must NOT count.
	if got := res.Suppressed["errsink"]; got != 4 {
		t.Errorf("suppressed[errsink] = %d, want 4", got)
	}
	suppressed := 0
	for _, d := range res.Diagnostics {
		if d.Suppressed {
			suppressed++
		}
	}
	if suppressed != 4 {
		t.Errorf("suppressed diagnostics = %d, want 4", suppressed)
	}
}

// TestCFGAnalyzerSuppression verifies that ctxflow's fixture carries
// exactly one //jem:nolint'd site — proving the suppression machinery
// composes with an analyzer that reads whole function bodies and that
// the fixture's want-count doesn't silently absorb a suppressed
// finding.
func TestCFGAnalyzerSuppression(t *testing.T) {
	t.Run(CtxFlow.Name, func(t *testing.T) {
		res, wants := runFixture(t, []*Analyzer{CtxFlow}, CtxFlow.Name)
		for _, p := range diffFixture(res, wants) {
			t.Error(p)
		}
		if got := res.Suppressed[CtxFlow.Name]; got != 1 {
			t.Errorf("suppressed[%s] = %d, want 1", CtxFlow.Name, got)
		}
	})
}

// TestRepoIsClean is `jem-vet ./...` as a test: the whole repository
// must satisfy its own invariants. This is the enforcement backstop
// for environments that run `go test ./...` but not `make lint`.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repo; skipped in -short")
	}
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	res := Run(All(), pkgs)
	for _, d := range res.Diagnostics {
		if !d.Suppressed {
			t.Errorf("%s", d)
		}
	}
}

// TestRepoIsCleanWithTests is `jem-vet -tests ./...` as a test: the
// test variants of every package (with their _test.go files merged
// in) must satisfy the same invariants as the library code.
func TestRepoIsCleanWithTests(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repo with tests; skipped in -short")
	}
	pkgs, err := LoadTests("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	res := Run(All(), pkgs)
	for _, d := range res.Diagnostics {
		if !d.Suppressed {
			t.Errorf("%s", d)
		}
	}
}

func TestByName(t *testing.T) {
	as, err := ByName("errsink, ctxflow")
	if err != nil || len(as) != 2 || as[0] != ErrSink || as[1] != CtxFlow {
		t.Fatalf("ByName = %v, %v", as, err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName(nosuch) should fail")
	}
}

// LoadDir loads a single directory of Go files as one package outside
// the module's package graph — the fixture loader for the golden
// self-tests (testdata packages are invisible to `go list ./...`).
// Imports are resolved by listing the fixture's own import set, so
// fixtures may import anything in the standard library or the module.
func LoadDir(moduleDir, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, e.Name())
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	sort.Strings(files)

	// Parse first so the fixture's imports determine what gets listed.
	fset := token.NewFileSet()
	var parsed []*ast.File
	importSet := make(map[string]bool)
	for _, name := range files {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, f)
		for _, spec := range f.Imports {
			importSet[strings.Trim(spec.Path.Value, `"`)] = true
		}
	}
	exports := make(map[string]string)
	if len(importSet) > 0 {
		var paths []string
		for p := range importSet {
			if p != "unsafe" {
				paths = append(paths, p)
			}
		}
		sort.Strings(paths)
		if len(paths) > 0 {
			listed, err := goList(moduleDir, false, paths...)
			if err != nil {
				return nil, err
			}
			for _, p := range listed {
				if p.Export != "" {
					exports[p.ImportPath] = p.Export
				}
			}
		}
	}
	imp := exportImporter(fset, exports)
	info := newInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check("fixture/"+filepath.Base(dir), fset, parsed, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", dir, err)
	}
	return &Package{Path: tpkg.Path(), Fset: fset, Files: parsed, Types: tpkg, Info: info}, nil
}
