package lint

// TestNoDeadCode is the dead-code gate. It loads the non-test code of
// the root module and of the benchmark module (which compiles against
// internal/*) and flags every package-level func, method, type, var or
// const that no non-test code references, when the identifier is
// exported and lives under internal/, or is unexported anywhere.
// Unlike the analyzers in All(), it needs every package at once, so it
// is a test over Load rather than a per-package Pass.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadCodeKeep lists identifiers the gate must not flag although no
// non-test code references them. Each value names the consumer. An
// entry is for a test helper or oracle that tests of more than one
// package share, or for a method reached only through an interface
// the loaded code cannot see; anything else is deleted or moved into
// the one _test.go file that uses it.
var deadCodeKeep = map[string]string{
	"repro/internal/fault.Reset":                "the fault-arming tests of internal/core, internal/fault, internal/serve, internal/shardnet and the root package",
	"repro/internal/kmer.Set":                   "distinct-k-mer oracle of genome_test.go, assemble_test.go and kmer_test.go",
	"repro/internal/kmer.Encode":                "oracle of kmer_test.go's iterator tests, minimizer_test.go's naiveExtract and internal/oracle's reference mapper",
	"repro/internal/minimizer.Jaccard":          "oracle of core_test.go TestBestHitAgreesWithBruteForceJaccard, sketch statistics_test.go and minimizer_test.go",
	"repro/internal/obs.Span.Ended":             "span-lifecycle asserts in trace_test.go, internal/dist/dist_test.go and internal/obs tests",
	"repro/internal/shardnet.ShardError.Unwrap": "errors.Is/errors.As in internal/serve/serve.go and cmd/jem-mapper, through an interface package errors does not export",
	"repro/internal/sketch.Defaults":            "the paper's parameters in internal/core and internal/sketch tests and benchmarks",
}

// deadCode loads every package of each module directory and returns
// one line per unreferenced identifier, sorted, positioned relative to
// the first directory. Identifiers are keyed by ⟨package path,
// receiver, name⟩: a module loaded as source and the same package seen
// through another module's export data yield different objects for
// one declaration.
func deadCode(moduleDirs ...string) ([]string, error) {
	root, err := filepath.Abs(moduleDirs[0])
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range moduleDirs {
		loaded, err := Load(dir, "./...")
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, loaded...)
	}

	type decl struct {
		pos    token.Position
		method *types.Func // nil unless the declaration is a method
	}
	decls := make(map[string]decl)
	referenced := make(map[string]bool)
	ifaces := newIfaceSet()
	for _, pkg := range pkgs {
		for _, imp := range pkg.Types.Imports() {
			ifaces.addScope(imp.Scope())
		}
		for _, tv := range pkg.Info.Types {
			ifaces.add(tv.Type)
		}
		for _, obj := range pkg.Info.Defs {
			if obj != nil {
				ifaces.add(obj.Type())
			}
		}
		for _, obj := range pkg.Info.Uses {
			ifaces.add(obj.Type())
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				for _, dd := range declObjects(pkg.Info, d) {
					key := objKey(dd.obj)
					if key != "" && gated(pkg.Path, dd.obj) {
						fn, _ := dd.obj.(*types.Func)
						if fn != nil && fn.Type().(*types.Signature).Recv() == nil {
							fn = nil
						}
						decls[key] = decl{pos: pkg.Fset.Position(dd.obj.Pos()), method: fn}
					}
					ast.Inspect(dd.node, func(n ast.Node) bool {
						id, ok := n.(*ast.Ident)
						if !ok {
							return true
						}
						if k := objKey(pkg.Info.Uses[id]); k != "" && k != key {
							referenced[k] = true
						}
						return true
					})
				}
			}
		}
	}

	var out []string
	for key, d := range decls {
		if referenced[key] {
			continue
		}
		if d.method != nil && ifaces.has(d.method) {
			continue
		}
		rel, err := filepath.Rel(root, d.pos.Filename)
		if err != nil {
			rel = d.pos.Filename
		}
		out = append(out, fmt.Sprintf("%s (%s:%d)", key, rel, d.pos.Line))
	}
	sort.Strings(out)
	return out, nil
}

// gated reports whether the gate checks obj, declared in pkgPath: an
// exported internal/* identifier or any unexported one, except main,
// init and _.
func gated(pkgPath string, obj types.Object) bool {
	switch obj.Name() {
	case "main", "init", "_":
		return false
	}
	if !obj.Exported() {
		return true
	}
	return strings.Contains(pkgPath, "/internal/")
}

// declPart is one package-level object with the syntax that belongs to
// it: references inside that syntax do not keep the object itself
// alive.
type declPart struct {
	obj  types.Object
	node ast.Node
}

// declObjects splits a top-level declaration into its objects. A
// method's receiver is left out of its syntax, so a type is not kept
// alive by its own methods.
func declObjects(info *types.Info, d ast.Decl) []declPart {
	switch d := d.(type) {
	case *ast.FuncDecl:
		parts := []ast.Node{d.Type}
		if d.Body != nil {
			parts = append(parts, d.Body)
		}
		var out []declPart
		for _, p := range parts {
			out = append(out, declPart{obj: info.Defs[d.Name], node: p})
		}
		return out
	case *ast.GenDecl:
		var out []declPart
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				out = append(out, declPart{obj: info.Defs[s.Name], node: s})
			case *ast.ValueSpec:
				for _, name := range s.Names {
					out = append(out, declPart{obj: info.Defs[name], node: s})
				}
			}
		}
		return out
	}
	return nil
}

// objKey names a package-level object or a method as "path.Name" or
// "path.Recv.Name"; anything else (locals, fields, interface methods)
// yields "".
func objKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	path := obj.Pkg().Path()
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			named := namedObj(recv.Type())
			if named == nil {
				return "" // interface method
			}
			if _, isIface := named.Type().Underlying().(*types.Interface); isIface {
				return ""
			}
			return path + "." + named.Name() + "." + obj.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return path + "." + obj.Name()
}

// namedObj returns the type name behind t, looking through one
// pointer, or nil.
func namedObj(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

// ifaceSet collects the methods of every interface type seen, keyed by
// name and signature, so a method that may be called through an
// interface (error, fmt.Stringer, io.*, a generic constraint, an
// unexported interface) is not reported as dead.
type ifaceSet struct {
	seen    map[types.Type]bool
	methods map[string]bool
}

func newIfaceSet() *ifaceSet {
	return &ifaceSet{seen: make(map[types.Type]bool), methods: make(map[string]bool)}
}

// methodSig renders a method as its name and parameter and result
// types, without parameter names or receiver.
func methodSig(name string, sig *types.Signature) string {
	qual := func(p *types.Package) string { return p.Path() }
	var b strings.Builder
	b.WriteString(name)
	for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tup.Len(); i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(types.TypeString(tup.At(i).Type(), qual))
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

func (s *ifaceSet) has(fn *types.Func) bool {
	return s.methods[methodSig(fn.Name(), fn.Type().(*types.Signature))]
}

// addScope adds every interface declared at package level in scope.
func (s *ifaceSet) addScope(scope *types.Scope) {
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			s.add(tn.Type())
		}
	}
}

// add walks t and records every interface type reachable from it.
func (s *ifaceSet) add(t types.Type) {
	if t == nil || s.seen[t] {
		return
	}
	s.seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		s.add(t.Underlying())
	case *types.TypeParam:
		s.add(t.Constraint())
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			m := t.Method(i)
			sig := m.Type().(*types.Signature)
			s.methods[methodSig(m.Name(), sig)] = true
			s.add(sig)
		}
	case *types.Pointer:
		s.add(t.Elem())
	case *types.Slice:
		s.add(t.Elem())
	case *types.Array:
		s.add(t.Elem())
	case *types.Map:
		s.add(t.Key())
		s.add(t.Elem())
	case *types.Chan:
		s.add(t.Elem())
	case *types.Signature:
		if tps := t.TypeParams(); tps != nil {
			for i := 0; i < tps.Len(); i++ {
				s.add(tps.At(i))
			}
		}
		for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tup.Len(); i++ {
				s.add(tup.At(i).Type())
			}
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			s.add(t.Field(i).Type())
		}
	}
}

func TestNoDeadCode(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks both modules; skipped in -short")
	}
	if len(deadCodeKeep) > 15 {
		t.Errorf("deadCodeKeep has %d entries; at most 15 — delete code instead of keeping it", len(deadCodeKeep))
	}
	dead, err := deadCode("../..", "../../benchmark")
	if err != nil {
		t.Fatal(err)
	}
	kept := make(map[string]bool)
	for _, d := range dead {
		key := strings.SplitN(d, " ", 2)[0]
		if deadCodeKeep[key] != "" {
			kept[key] = true
			continue
		}
		t.Errorf("no non-test code references %s", d)
	}
	for key := range deadCodeKeep {
		if !kept[key] {
			t.Errorf("deadCodeKeep entry %s is stale: the identifier is gone or referenced; remove the entry", key)
		}
	}
}

// TestNoDeadCodeFixture runs the gate on testdata/deadcode, a module
// with a benchmark-like second module in bench/. Of the identifiers it
// plants, only the unreferenced function and the one referenced from a
// _test.go file alone may be flagged; a String method, a method reached
// through a generic constraint, an unexported interface method and a
// function only the second module calls are all live.
func TestNoDeadCodeFixture(t *testing.T) {
	dir := filepath.Join("testdata", "deadcode")
	dead, err := deadCode(dir, filepath.Join(dir, "bench"))
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, d := range dead {
		keys = append(keys, strings.SplitN(d, " ", 2)[0])
	}
	want := []string{"fixture/internal/dead.Dead", "fixture/internal/dead.OnlyTested"}
	if strings.Join(keys, ",") != strings.Join(want, ",") {
		t.Errorf("flagged %q, want %q", dead, want)
	}
}
