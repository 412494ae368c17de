package oracle

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// mutant is one planted defect of testdata/mutants/list.json: the one
// occurrence of From inside function Func (Type.method for a method)
// of File, a path from the repository root, replaced by To. Lint names
// the jem-vet analyzer a plant violates; if no test kills the plant,
// that analyzer is its explanation. A leak/ plant parks a goroutine
// after its completion signal and a span/ plant drops a span's End;
// Site names the function of the go statement or span begin the plant
// covers when that is not Func (a span ended elsewhere than begun).
type mutant struct{ ID, File, Func, Site, Lint, From, To string }

// repoRoot is the repository root, seen from this package's directory.
const repoRoot = "../.."

func loadMutants(t testing.TB) []mutant {
	var ms []mutant
	raw, err := os.ReadFile("testdata/mutants/list.json")
	if err == nil {
		err = json.Unmarshal(raw, &ms)
	}
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

// apply returns m's file with m applied. It fails when the function is
// not in the file, when its site does not occur in the function exactly
// once, or when the mutated file does not parse.
func (m mutant) apply() ([]byte, error) {
	src, err := os.ReadFile(filepath.Join(repoRoot, m.File))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, m.File, src, 0)
	if err != nil {
		return nil, err
	}
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok {
			continue
		}
		if funcName(fd) != m.Func {
			continue
		}
		start, end := fset.Position(fd.Pos()).Offset, fset.Position(fd.End()).Offset
		if n := bytes.Count(src[start:end], []byte(m.From)); n != 1 || m.From == m.To {
			return nil, fmt.Errorf("%q occurs %d times in %s, or is its own replacement", m.From, n, m.Func)
		}
		at := start + bytes.Index(src[start:end], []byte(m.From))
		out := slices.Concat(src[:at], []byte(m.To), src[at+len(m.From):])
		_, err := parser.ParseFile(token.NewFileSet(), m.File, out, 0)
		return out, err
	}
	return nil, fmt.Errorf("no function %s in %s", m.Func, m.File)
}

// funcName names fd as the list does: Name, or Type.Name for a method.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return fd.Name.Name
	}
	return strings.TrimPrefix(types.ExprString(fd.Recv.List[0].Type), "*") + "." + fd.Name.Name
}

// TestMutantSitesResolve keeps the mutant list in step with the code:
// every site occurs exactly once in its function, every mutated file
// parses, and no id repeats. A refactor that moves a site fails here,
// not in make mutants. It also requires every go statement and every
// obs span begin of the library to lie in a function that a leak/ or
// span/ plant covers, so that make mutants proves a test sees each
// goroutine exit and each span end.
func TestMutantSitesResolve(t *testing.T) {
	seen, covered := map[string]bool{}, map[string]bool{}
	for _, m := range loadMutants(t) {
		if _, err := m.apply(); err != nil || seen[m.ID] {
			t.Errorf("%s: %v, or a repeated id", m.ID, err)
		}
		seen[m.ID] = true
		if strings.HasPrefix(m.ID, "leak/") || strings.HasPrefix(m.ID, "span/") {
			covered[m.File+": "+cmp.Or(m.Site, m.Func)] = true
		}
	}
	for pos, fn := range goAndSpanSites(t) {
		if !covered[fn] {
			t.Errorf("%s: a go statement or span begin in %s that no leak/ or span/ plant covers", pos, fn)
		}
	}
}

// goAndSpanSites maps the position of every go statement, and of every
// call named Start, Child or NewSpan in a file of package obs or one
// that imports it, to "file: function". It reads the module's non-test
// files outside package main, testdata and the benchmark module.
func goAndSpanSites(t *testing.T) map[string]string {
	sites := map[string]string{}
	err := filepath.WalkDir(repoRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			if err == nil && path != repoRoot && (d.Name() == "testdata" || d.Name() == "benchmark" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return err
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil || f.Name.Name == "main" {
			return err
		}
		rel, err := filepath.Rel(repoRoot, path)
		if err != nil {
			return err
		}
		file := filepath.ToSlash(rel)
		spans := f.Name.Name == "obs" || slices.ContainsFunc(f.Imports, func(s *ast.ImportSpec) bool { return s.Path.Value == `"repro/internal/obs"` })
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				var name string
				switch x := n.(type) {
				case *ast.GoStmt:
					name = "go"
				case *ast.CallExpr:
					if sel, ok := x.Fun.(*ast.SelectorExpr); ok && spans {
						name = sel.Sel.Name
					} else if id, ok := x.Fun.(*ast.Ident); ok && spans {
						name = id.Name
					}
				}
				if name == "go" || name == "Start" || name == "Child" || name == "NewSpan" {
					sites[fmt.Sprintf("%s:%d", file, fset.Position(n.Pos()).Line)] = file + ": " + funcName(fd)
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sites
}
