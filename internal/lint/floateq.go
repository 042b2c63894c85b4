package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// FloatEq flags == and != between floating-point operands.  Exact float
// comparison is almost always a rounding bug waiting to happen; the
// narrow legitimate uses are allowlisted:
//
//   - comparison against an integral-valued constant (0, 1, the MAXINT
//     failure sentinel 2⁶³): these values are assigned, never computed,
//     so the comparison is an exact round-trip;
//   - both operands constant (compile-time identity);
//   - x != x / x == x — the NaN idiom;
//   - comparison against math.Inf(...)/math.NaN() sentinels;
//   - in _test.go files, comparison against any constant (decode and
//     round-trip tests assert exact stored values by design);
//   - in _test.go files, a comparison whose enclosing if-statement body
//     fails the test (t.Error/t.Fatal/…): exact asserts are the
//     bit-identity idiom the golden campaign is built on.  Comparisons
//     in test helpers that compute rather than assert are still flagged.
//
// Everything else — comparing two computed floats — needs either an
// epsilon or a //lint:ignore documenting why exactness is the semantics
// (dominance identity, Spearman tie detection, sort tie-breaks).
var FloatEq = &Analyzer{
	Name: "floateq",
	Doc:  "no exact ==/!= between computed floating-point values",
	Run:  runFloatEq,
}

func runFloatEq(pass *ProgPass) {
	pass.inspect(nil, func(pkg *Package, n ast.Node, stack []ast.Node) {
		bin, ok := n.(*ast.BinaryExpr)
		if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
			return
		}
		xt, yt := pkg.Info.TypeOf(bin.X), pkg.Info.TypeOf(bin.Y)
		if xt == nil || yt == nil || (!isFloat(xt) && !isFloat(yt)) {
			return
		}
		xv, yv := constValue(pkg.Info, bin.X), constValue(pkg.Info, bin.Y)
		switch {
		case xv != nil && yv != nil:
			return // compile-time comparison
		case isIntegralConst(xv) || isIntegralConst(yv):
			return // exact sentinel (0, 1, MAXINT, …)
		case inTestFileOf(pkg, bin.Pos()) && (xv != nil || yv != nil):
			return // exactness assertions in tests
		case inTestFileOf(pkg, bin.Pos()) && isTestAssertGuard(pkg.Info, bin, stack):
			return // bit-identity assert: mismatch fails the test
		case types.ExprString(bin.X) == types.ExprString(bin.Y):
			return // x != x NaN idiom
		case isInfNaNCall(pkg.Info, bin.X) || isInfNaNCall(pkg.Info, bin.Y):
			return
		}
		pass.Reportf(pkg, bin.Pos(), "exact float comparison %s between computed values; use an epsilon or //lint:ignore with the reason exact equality is the semantics", bin.Op)
	})
}

// isTestAssertGuard reports whether bin sits in the condition of an if
// statement whose body (or else branch) fails or skips the test — the
// `if got != want { t.Fatalf(…) }` bit-identity idiom.
func isTestAssertGuard(info *types.Info, bin *ast.BinaryExpr, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		ifStmt, ok := stack[i].(*ast.IfStmt)
		if !ok || ifStmt.Cond == nil {
			continue
		}
		if bin.Pos() < ifStmt.Cond.Pos() || bin.End() > ifStmt.Cond.End() {
			continue
		}
		failed := false
		check := func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			recv := info.TypeOf(sel.X)
			if recv == nil || !isTestingParam(recv) {
				return true
			}
			switch sel.Sel.Name {
			case "Error", "Errorf", "Fatal", "Fatalf", "Fail", "FailNow", "Skip", "Skipf":
				failed = true
			}
			return true
		}
		ast.Inspect(ifStmt.Body, check)
		if ifStmt.Else != nil {
			ast.Inspect(ifStmt.Else, check)
		}
		if failed {
			return true
		}
	}
	return false
}

// isIntegralConst reports whether v is a numeric constant with an exact
// integral value (0, 1, 2⁶³, …) — values that are assigned verbatim and
// therefore compare exactly.
func isIntegralConst(v constant.Value) bool {
	if v == nil {
		return false
	}
	switch v.Kind() {
	case constant.Int:
		return true
	case constant.Float:
		return constant.ToInt(v).Kind() == constant.Int
	}
	return false
}

// isInfNaNCall reports whether e is math.Inf(…) or math.NaN().
func isInfNaNCall(info *types.Info, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	path, name := pkgCall(info, sel)
	return path == "math" && (name == "Inf" || name == "NaN")
}
