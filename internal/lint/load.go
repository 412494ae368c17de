package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed and type-checked package ready for
// analysis.
type Package struct {
	// Path is the package's import path ("repro/internal/sketch").
	Path string
	// Fset positions every file in Files.
	Fset *token.FileSet
	// Files are the parsed non-test Go sources, in file-name order.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info is the type-checker's fact tables for Files.
	Info *types.Info
}

// listedPkg is the subset of `go list -json` output the loader needs.
type listedPkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
	Incomplete bool
	// ForTest and ImportMap only appear under -test: ForTest names the
	// package a test variant was compiled for; ImportMap redirects
	// source-level import paths to test-variant packages.
	ForTest   string
	ImportMap map[string]string
}

// goList shells out to the go tool for package metadata plus compiled
// export data: `go list -deps -export` writes every dependency's
// export file into the build cache and reports its path, which is
// what lets the type-checker resolve imports without x/tools. With
// tests set, the test graph is included (-test): each package with
// test files additionally appears as a test-augmented variant
// ("foo [foo.test]") whose GoFiles merge in the _test.go sources.
func goList(dir string, tests bool, patterns ...string) ([]listedPkg, error) {
	args := []string{"list", "-deps", "-export"}
	if tests {
		args = append(args, "-test")
	}
	args = append(args,
		"-json=ImportPath,Name,Dir,GoFiles,Export,Standard,DepOnly,Incomplete,ForTest,ImportMap")
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok && len(ee.Stderr) > 0 {
			return nil, fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(patterns, " "), err, ee.Stderr)
		}
		return nil, fmt.Errorf("lint: go list %s: %v", strings.Join(patterns, " "), err)
	}
	var pkgs []listedPkg
	dec := json.NewDecoder(strings.NewReader(string(out)))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter satisfies go/types's import needs from the export
// files `go list -export` reported.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// Load resolves patterns (e.g. "./...") relative to dir, parses every
// matched non-standard package from source, and type-checks it
// against export data. Test files are not analyzed.
func Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, false, patterns...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(listed))
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)

	var out []*Package
	for _, p := range listed {
		if p.DepOnly || p.Standard || p.Incomplete || len(p.GoFiles) == 0 {
			continue
		}
		pkg, err := checkPackage(fset, imp, p.ImportPath, p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// LoadTests is Load with the test graph included: each package with
// test files is analyzed as its test-augmented variant
// ("foo [foo.test]", same import path compiled with the in-package
// _test.go files merged in), and external test packages
// (package foo_test) are analyzed alongside. Skipped: generated
// .test main packages, plain packages superseded by their own test
// variant (analyzing both would duplicate every non-test
// diagnostic), and foreign recompilations — dependencies rebuilt
// against another package's test variant, which add no new source.
//
// Test variants of different packages can map the same source-level
// import path to different compiled packages, so unlike Load each
// analyzed package gets its own importer honoring its ImportMap.
func LoadTests(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, true, patterns...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(listed))
	augmented := make(map[string]bool)
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if base := testBase(p.ImportPath); base != p.ImportPath && base == p.ForTest {
			augmented[base] = true
		}
	}
	fset := token.NewFileSet()

	var out []*Package
	for _, p := range listed {
		if p.DepOnly || p.Standard || p.Incomplete || len(p.GoFiles) == 0 {
			continue
		}
		if strings.HasSuffix(p.ImportPath, ".test") {
			continue // generated test-main package
		}
		base := testBase(p.ImportPath)
		switch {
		case base == p.ImportPath:
			if augmented[base] {
				continue // superseded by its own test variant
			}
		case base != p.ForTest && base != p.ForTest+"_test":
			continue // foreign recompilation, no new source
		}
		imp := exportImporter(fset, mappedExports(exports, p.ImportMap))
		pkg, err := checkPackage(fset, imp, base, p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// testBase strips the " [foo.test]" variant suffix from an import
// path reported under -test.
func testBase(importPath string) string {
	if i := strings.Index(importPath, " ["); i >= 0 {
		return importPath[:i]
	}
	return importPath
}

// mappedExports resolves one package's view of the export table:
// source-level import paths redirected by its ImportMap point at the
// mapped variant's export data.
func mappedExports(exports map[string]string, importMap map[string]string) map[string]string {
	if len(importMap) == 0 {
		return exports
	}
	out := make(map[string]string, len(exports))
	for path, file := range exports {
		out[path] = file
	}
	for from, to := range importMap {
		if file, ok := exports[to]; ok {
			out[from] = file
		}
	}
	return out
}

func checkPackage(fset *token.FileSet, imp types.Importer, importPath, dir string, goFiles []string) (*Package, error) {
	var parsed []*ast.File
	for _, name := range goFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, f)
	}
	info := newInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(importPath, fset, parsed, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", importPath, err)
	}
	return &Package{Path: importPath, Fset: fset, Files: parsed, Types: tpkg, Info: info}, nil
}
