package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// scopeDoc renders a package table as the sorted, comma-separated list
// the analyzers' Doc lines quote, so -list cannot drift from the table.
func scopeDoc(pkgs map[string]bool) string {
	return strings.Join(sortedKeys(pkgs), ", ")
}

// pkgCall reports the (import path, selector name) of a package-qualified
// reference like time.Now, or ("", "") if sel is not one.
func pkgCall(info *types.Info, sel *ast.SelectorExpr) (string, string) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", ""
	}
	return pn.Imported().Path(), sel.Sel.Name
}

// isNamedType reports whether t (after pointer unwrapping) is the named
// type path.name.
func isNamedType(t types.Type, path, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == path
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	return isNamedType(t, "context", "Context")
}

// isFloat reports whether t's underlying type is a floating-point or
// complex basic type.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}

// constValue returns e's compile-time constant value, or nil.
func constValue(info *types.Info, e ast.Expr) constant.Value {
	if tv, ok := info.Types[e]; ok {
		return tv.Value
	}
	return nil
}

// declaredWithin reports whether obj's declaration lies inside n's span.
func declaredWithin(obj types.Object, n ast.Node) bool {
	return obj != nil && obj.Pos() != 0 && n.Pos() <= obj.Pos() && obj.Pos() < n.End()
}

// rootIdentObj resolves the root identifier object of an lvalue like
// x, x.f, or x[i].f — the variable whose storage the expression reaches.
func rootIdentObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return info.ObjectOf(v)
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// enclosingFuncType returns the type of the innermost enclosing function
// declaration or literal in stack, with the node itself, or nil.
func enclosingFuncType(stack []ast.Node) (*ast.FuncType, ast.Node) {
	for i := len(stack) - 1; i >= 0; i-- {
		switch f := stack[i].(type) {
		case *ast.FuncDecl:
			return f.Type, f
		case *ast.FuncLit:
			return f.Type, f
		}
	}
	return nil, nil
}

// inTestFileOf reports whether pos lies in one of pkg's _test.go files.
func inTestFileOf(pkg *Package, pos token.Pos) bool {
	return strings.HasSuffix(pkg.Fset.Position(pos).Filename, "_test.go")
}
