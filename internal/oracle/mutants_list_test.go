package oracle

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
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
// that analyzer is its explanation.
type mutant struct{ ID, File, Func, Lint, From, To string }

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
		name := fd.Name.Name
		if fd.Recv != nil {
			name = strings.TrimPrefix(types.ExprString(fd.Recv.List[0].Type), "*") + "." + name
		}
		if name != m.Func {
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

// TestMutantSitesResolve keeps the mutant list in step with the code:
// every site occurs exactly once in its function, every mutated file
// parses, and no id repeats. A refactor that moves a site fails here,
// not in make mutants.
func TestMutantSitesResolve(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range loadMutants(t) {
		if _, err := m.apply(); err != nil || seen[m.ID] {
			t.Errorf("%s: %v, or a repeated id", m.ID, err)
		}
		seen[m.ID] = true
	}
}
