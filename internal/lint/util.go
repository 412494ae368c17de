package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// pkgFunc reports whether call is a direct call of pkgPath.name
// (e.g. "fmt".Sprintf), resolved through the type-checker so aliased
// imports are handled.
func pkgFunc(info *types.Info, call *ast.CallExpr) (pkgPath, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	obj := info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return "", "", false
	}
	if _, isPkgName := info.Uses[rootIdent(sel.X)].(*types.PkgName); !isPkgName {
		return "", "", false
	}
	return obj.Pkg().Path(), obj.Name(), true
}

// methodCall reports the called method's name and the receiver
// expression when call is a method call (x.M(...)), resolved through
// the type-checker's selection table.
func methodCall(info *types.Info, call *ast.CallExpr) (recv ast.Expr, method *types.Func, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, nil, false
	}
	selection := info.Selections[sel]
	if selection == nil || selection.Kind() != types.MethodVal {
		return nil, nil, false
	}
	fn, isFn := selection.Obj().(*types.Func)
	if !isFn {
		return nil, nil, false
	}
	return sel.X, fn, true
}

func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// exprString renders a (small) expression for use in a diagnostic —
// good enough for receiver expressions like "w" / "s.out"; not a
// general printer.
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.ParenExpr:
		return "(" + exprString(x.X) + ")"
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	case *ast.UnaryExpr:
		return x.Op.String() + exprString(x.X)
	case *ast.IndexExpr:
		return exprString(x.X) + "[" + exprString(x.Index) + "]"
	case *ast.CallExpr:
		return exprString(x.Fun) + "(…)"
	default:
		return "?"
	}
}

// funcDisplayName renders a FuncDecl as "Recv.Name" / "Name" — the
// form used by the hotpathalloc required-annotation table.
func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
			continue
		case *ast.IndexExpr: // generic receiver
			t = x.X
			continue
		}
		break
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// hasAnnotation reports whether the declaration's doc comment group
// contains the given //jem:... marker line. The marker may be followed
// by free-form text on the same line ("//jem:detached batch tool: no
// caller scope") — the diagnostics ask authors to say why, so the
// reason lives next to the marker.
func hasAnnotation(doc *ast.CommentGroup, marker string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		t := strings.TrimSpace(c.Text)
		if t == marker || strings.HasPrefix(t, marker+" ") {
			return true
		}
	}
	return false
}

// errorReturning reports whether the call's result tuple ends in an
// error — the precondition for "you dropped the error" diagnostics.
func errorReturning(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	if !ok {
		return false
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return false
	}
	results := sig.Results()
	if results.Len() == 0 {
		return false
	}
	last := results.At(results.Len() - 1).Type()
	named, ok := last.(*types.Named)
	if !ok {
		return false
	}
	return named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// isTestFile reports whether pos lies in a _test.go file — several
// analyzers (ctxflow, goleak) deliberately exempt test
// code from production-path invariants.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// terminatingCall reports calls that never return — the set the CFG
// builder treats as edges straight to the exit block: os.Exit,
// runtime.Goexit, the log.Fatal family, and testing's
// Fatal/Fatalf/FailNow/Skip family (which call Goexit).
func terminatingCall(info *types.Info, call *ast.CallExpr) bool {
	if path, name, ok := pkgFunc(info, call); ok {
		switch {
		case path == "os" && name == "Exit":
			return true
		case path == "runtime" && name == "Goexit":
			return true
		case path == "log" && strings.HasPrefix(name, "Fatal"):
			return true
		}
		return false
	}
	if recv, fn, ok := methodCall(info, call); ok && fn.Pkg() != nil && fn.Pkg().Path() == "testing" {
		switch fn.Name() {
		case "Fatal", "Fatalf", "FailNow", "Skip", "Skipf", "SkipNow":
			_ = recv
			return true
		}
	}
	return false
}

// inspectSkipFuncLit walks the statement subtree like ast.Inspect but
// does not descend into function literals — their bodies execute at
// some other time and belong to a different control-flow analysis.
func inspectSkipFuncLit(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, isLit := m.(*ast.FuncLit); isLit {
			return false
		}
		return fn(m)
	})
}

// contextAcceptingCall reports whether call's static callee takes a
// context.Context as its first parameter.
func contextAcceptingCall(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	if !ok {
		return false
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok || sig.Params().Len() == 0 {
		return false
	}
	return namedTypeIs(sig.Params().At(0).Type(), "context", "Context")
}

// namedTypeIs reports whether t (after pointer indirection) is the
// named type pkgPath.name.
func namedTypeIs(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}
