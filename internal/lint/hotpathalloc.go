package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// hotPathMarker is the doc-comment annotation that opts a function
// into hot-path allocation checking.
const hotPathMarker = "//jem:hotpath"

// requiredHotPaths lists functions that MUST carry //jem:hotpath:
// the per-row and per-segment loops whose allocation discipline the
// repo's throughput depends on (MapStream's writer drain, the session
// lookup loops, the winnowing loop, the sketch inner loops). Missing
// annotations are diagnostics: the point is that nobody silently drops
// the marker — and with it the machine checking — from a hot loop.
var requiredHotPaths = map[string][]string{
	"repro": {
		"rowFormat.drainStreamResults",
		"streamWork.read",
		"appendTSVRow",
	},
	"repro/internal/core": {
		"Session.MapSegment",
		"Session.MapSegmentPositional",
	},
	"repro/internal/seq": {
		"Reader.cutFASTQ",
	},
	"repro/internal/minimizer": {
		"AppendExtract",
	},
	"repro/internal/sketch": {
		"Sketcher.sketchTuples",
		"Sketcher.querySketchTuples",
		"HashFamily.Hash",
	},
}

// HotPathAlloc flags allocation-prone constructs inside functions
// annotated //jem:hotpath: fmt print-family calls (~2 allocs per
// call), non-constant string concatenation, and closure literals
// (captured-variable allocation plus a func value). It also requires
// the annotation on the functions listed in requiredHotPaths.
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc:  "flag allocating constructs in //jem:hotpath functions and require the annotation on known hot loops",
	Run:  runHotPathAlloc,
}

func runHotPathAlloc(pass *Pass) {
	required := make(map[string]bool)
	for _, name := range requiredHotPaths[pass.Pkg.Path()] {
		required[name] = true
	}
	seen := make(map[string]bool)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			annotated := hasAnnotation(fd.Doc, hotPathMarker)
			name := funcDisplayName(fd)
			seen[name] = true
			if required[name] && !annotated {
				pass.Report(fd.Name.Pos(),
					"%s is a known hot path and must be annotated %s", name, hotPathMarker)
			}
			if annotated && fd.Body != nil {
				checkHotBody(pass, name, fd.Body)
			}
		}
	}
	// A required function that no longer exists means a hot loop was
	// renamed or moved without updating the table — the annotation
	// requirement must follow the code, not silently evaporate.
	for _, name := range requiredHotPaths[pass.Pkg.Path()] {
		if !seen[name] && len(pass.Files) > 0 {
			pass.Report(pass.Files[0].Name.Pos(),
				"required hot path %s.%s does not exist; update requiredHotPaths in internal/lint to follow the refactor",
				pass.Pkg.Path(), name)
		}
	}
}

func checkHotBody(pass *Pass, fname string, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			pass.Report(x.Pos(),
				"closure literal in hot path %s allocates; hoist it out of the loop or restructure", fname)
			return false // the closure body runs elsewhere
		case *ast.CallExpr:
			if path, name, ok := pkgFunc(pass.Info, x); ok && path == "fmt" && isPrintName(name) {
				pass.Report(x.Pos(),
					"fmt.%s in hot path %s allocates per call; use an append-based formatter", name, fname)
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isNonConstantString(pass.Info, x) {
				pass.Report(x.Pos(),
					"string concatenation in hot path %s allocates; use append on a reused []byte", fname)
			}
		case *ast.AssignStmt:
			if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 {
				if t := pass.Info.TypeOf(x.Lhs[0]); t != nil && isStringType(t) {
					pass.Report(x.Pos(),
						"string += in hot path %s allocates; use append on a reused []byte", fname)
				}
			}
		}
		return true
	})
}

func isPrintName(name string) bool {
	return strings.Contains(strings.ToLower(name), "print")
}

func isStringType(t types.Type) bool {
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

// isNonConstantString reports whether e is a string-typed addition
// that survives to run time (an all-constant concatenation is folded
// by the compiler and costs nothing).
func isNonConstantString(info *types.Info, e *ast.BinaryExpr) bool {
	tv, ok := info.Types[e]
	if !ok || !isStringType(tv.Type) {
		return false
	}
	return tv.Value == nil
}
