package lint

// TestAPISurface is the exported-API compatibility gate (docs/API.md
// §5): the public jem package's exported declarations, rendered one
// per line and sorted, must match the committed golden listing
// docs/api_surface.txt. Removing or changing an exported name fails
// the test until the golden file is deliberately re-recorded with
//
//	go test ./internal/lint -run TestAPISurface -update

import (
	"flag"
	"fmt"
	"go/types"
	"os"
	"sort"
	"strings"
	"testing"
)

var updateAPISurface = flag.Bool("update", false, "re-record docs/api_surface.txt instead of comparing against it")

const apiSurfacePath = "../../docs/api_surface.txt"

func TestAPISurface(t *testing.T) {
	pkgs, err := Load("../..", ".")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("the root pattern matched %d packages, want 1", len(pkgs))
	}
	got := apiSurface(pkgs[0].Types)
	if *updateAPISurface {
		if err := os.WriteFile(apiSurfacePath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(apiSurfacePath)
	if err != nil {
		t.Fatalf("%v (record with -update)", err)
	}
	want := string(raw)
	if got == want {
		return
	}
	gotSet, wantSet := lineSet(got), lineSet(want)
	for _, l := range strings.Split(want, "\n") {
		if l != "" && !gotSet[l] {
			t.Errorf("- %s", l)
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if l != "" && !wantSet[l] {
			t.Errorf("+ %s", l)
		}
	}
	t.Errorf("exported API surface differs from docs/api_surface.txt; if the change is intentional, re-record with -update and commit the result")
}

func lineSet(s string) map[string]bool {
	set := make(map[string]bool)
	for _, l := range strings.Split(s, "\n") {
		set[l] = true
	}
	return set
}

// apiSurface renders the exported declarations of pkg, one per line,
// sorted. Lines are self-contained type signatures, so any change to
// an exported name, field, or signature changes the listing.
func apiSurface(pkg *types.Package) string {
	// Qualify foreign packages by name, never the package under
	// inspection, so the listing is path-independent.
	qual := func(other *types.Package) string {
		if other == pkg {
			return ""
		}
		return other.Name()
	}
	var lines []string
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		switch obj := obj.(type) {
		case *types.Const:
			lines = append(lines, fmt.Sprintf("const %s %s", name, types.TypeString(obj.Type(), qual)))
		case *types.Var:
			lines = append(lines, fmt.Sprintf("var %s %s", name, types.TypeString(obj.Type(), qual)))
		case *types.Func:
			lines = append(lines, "func "+name+strings.TrimPrefix(types.TypeString(obj.Type(), qual), "func"))
		case *types.TypeName:
			lines = append(lines, typeLines(obj, qual)...)
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// typeLines renders one exported named type: its kind line, exported
// struct fields, and exported methods (pointer and value receivers).
func typeLines(obj *types.TypeName, qual types.Qualifier) []string {
	name := obj.Name()
	var lines []string
	if obj.IsAlias() {
		return []string{fmt.Sprintf("type %s = %s", name, types.TypeString(obj.Type(), qual))}
	}
	named, ok := obj.Type().(*types.Named)
	if !ok {
		return []string{fmt.Sprintf("type %s %s", name, types.TypeString(obj.Type().Underlying(), qual))}
	}
	switch under := named.Underlying().(type) {
	case *types.Struct:
		lines = append(lines, fmt.Sprintf("type %s struct", name))
		for i := 0; i < under.NumFields(); i++ {
			f := under.Field(i)
			if !f.Exported() {
				continue
			}
			lines = append(lines, fmt.Sprintf("field %s.%s %s", name, f.Name(), types.TypeString(f.Type(), qual)))
		}
	case *types.Interface:
		lines = append(lines, fmt.Sprintf("type %s interface", name))
		for i := 0; i < under.NumExplicitMethods(); i++ {
			m := under.ExplicitMethod(i)
			if !m.Exported() {
				continue
			}
			lines = append(lines, fmt.Sprintf("method %s.%s%s", name, m.Name(),
				strings.TrimPrefix(types.TypeString(m.Type(), qual), "func")))
		}
	default:
		lines = append(lines, fmt.Sprintf("type %s %s", name, types.TypeString(under, qual)))
	}
	// The pointer method set includes the value method set.
	mset := types.NewMethodSet(types.NewPointer(named))
	for i := 0; i < mset.Len(); i++ {
		m := mset.At(i).Obj()
		if !m.Exported() || m.Pkg() != obj.Pkg() {
			continue
		}
		recv := name
		if _, isPtr := mset.At(i).Recv().(*types.Pointer); isPtr || isPointerReceiver(m) {
			recv = "*" + name
		}
		lines = append(lines, fmt.Sprintf("method (%s) %s%s", recv, m.Name(),
			strings.TrimPrefix(types.TypeString(m.Type(), qual), "func")))
	}
	return lines
}

// isPointerReceiver reports whether the method was declared on a
// pointer receiver (the method-set view erases this).
func isPointerReceiver(m types.Object) bool {
	sig, ok := m.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	_, isPtr := sig.Recv().Type().(*types.Pointer)
	return isPtr
}
