package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DetFlow follows determinism's sources across package boundaries: a
// wall-clock read or an order-sensitive map iteration (wallClockRead,
// mapOrderEffects) whose *value* escapes through helper-function returns
// is flagged where a deterministic package consumes it.  Determinism
// catches `time.Now()` written inside nsga2; DetFlow catches
// `x := util.Stamp()` inside nsga2 where util.Stamp (any non-
// deterministic package) returns a time.Now-derived value through any
// number of intermediate helpers — the leak the golden campaign's
// byte-identity contract (frontier/lcurve/wire bytes) cannot tolerate.
//
// Sources suppressed in place with //lint:ignore determinism (or
// detflow) do not taint their callers: a collect-then-sort map range
// with a reasoned ignore stays clean interprocedurally too.
var DetFlow = &Analyzer{
	Name: "detflow",
	Doc:  "no wall-clock or map-order values flowing through helpers into deterministic packages (frontier/lcurve/wire sinks)",
	Run:  runDetFlow,
}

// taintSummary records whether a function's return value is derived
// from a nondeterminism source, and where that source is.
type taintSummary struct {
	clock    bool
	mapOrder bool
	clockWhy string // "time.Now at file:line" or "via pkg.F: …"
	mapWhy   string
}

func runDetFlow(pass *ProgPass) {
	prog := pass.Prog

	// Fixed-point over the module: a function is return-tainted if any
	// return expression derives from a source or from a tainted callee's
	// result (tracked through simple local assignments).
	summaries := map[string]*taintSummary{}
	for _, n := range prog.Nodes() {
		summaries[n.Key] = &taintSummary{}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range prog.Nodes() {
			s := summaries[n.Key]
			if s.clock && s.mapOrder {
				continue
			}
			clock, clockWhy, mapOrder, mapWhy := returnTaintOf(prog, n, summaries)
			if clock && !s.clock {
				s.clock, s.clockWhy = true, clockWhy
				changed = true
			}
			if mapOrder && !s.mapOrder {
				s.mapOrder, s.mapWhy = true, mapWhy
				changed = true
			}
		}
	}

	// Findings: deterministic-package code consuming a tainted return
	// from a non-deterministic package's function.
	for _, n := range prog.Nodes() {
		if !deterministicPkgs[n.Pkg.BaseName()] {
			continue
		}
		var stack []ast.Node
		ast.Inspect(n.Decl, func(node ast.Node) bool {
			if node == nil {
				stack = stack[:len(stack)-1]
				return false
			}
			call, ok := node.(*ast.CallExpr)
			if !ok {
				stack = append(stack, node)
				return true
			}
			if inTestFileOf(n.Pkg, call.Pos()) || resultDiscarded(stack) {
				stack = append(stack, node)
				return true
			}
			// Intra-deterministic calls are determinism's job.
			if callee := prog.resolveCall(n.Pkg, call); callee != nil && !deterministicPkgs[callee.Pkg.BaseName()] {
				sum := summaries[callee.Key]
				switch {
				case sum.clock:
					pass.Reportf(n.Pkg, call.Pos(),
						"call to %s returns a wall-clock-derived value (%s) into deterministic package %q: the result poisons bit-identical replay; inject the timestamp at the boundary",
						shortKey(callee.Key), sum.clockWhy, n.Pkg.BaseName())
				case sum.mapOrder:
					pass.Reportf(n.Pkg, call.Pos(),
						"call to %s returns a map-iteration-ordered value (%s) into deterministic package %q: map order is random per run; sort in the helper or iterate sorted keys",
						shortKey(callee.Key), sum.mapWhy, n.Pkg.BaseName())
				}
			}
			stack = append(stack, node)
			return true
		})
	}
}

// isSortCall matches the stdlib order-normalizers: sort.Slice and
// friends and the slices.Sort family.
func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	path, name := pkgCall(info, sel)
	switch path {
	case "sort":
		switch name {
		case "Slice", "SliceStable", "Sort", "Stable", "Strings", "Ints", "Float64s":
			return true
		}
	case "slices":
		return strings.HasPrefix(name, "Sort")
	}
	return false
}

// resultDiscarded reports a call whose results cannot flow anywhere:
// a bare expression statement or a go/defer spawn.
func resultDiscarded(stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	switch stack[len(stack)-1].(type) {
	case *ast.ExprStmt, *ast.GoStmt, *ast.DeferStmt:
		return true
	}
	return false
}

// sourceSuppressed reports a nondeterminism source silenced in place
// under either rule name: it does not taint its callers.
func (prog *Program) sourceSuppressed(pos token.Position) bool {
	return prog.suppressedAt(pos.Filename, pos.Line, "determinism") || prog.suppressedAt(pos.Filename, pos.Line, "detflow")
}

// returnTaintOf analyzes one function body: local objects assigned from
// tainted expressions propagate (two forward passes handle simple
// chains), and any tainted return expression taints the summary.
func returnTaintOf(prog *Program, n *FuncNode, summaries map[string]*taintSummary) (clock bool, clockWhy string, mapOrder bool, mapWhy string) {
	pkg := n.Pkg
	taintedClock := map[types.Object]string{}
	taintedMap := map[types.Object]string{}

	// Map-order roots: the outer variables determinism's map-range
	// effects write, unless the range is suppressed.
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		rng, ok := node.(*ast.RangeStmt)
		if !ok {
			return true
		}
		effects := mapOrderEffects(pkg.Info, rng)
		if len(effects) == 0 {
			return true
		}
		if pos := pkg.Fset.Position(rng.Pos()); !prog.sourceSuppressed(pos) {
			for _, e := range effects {
				if e.root != nil {
					taintedMap[e.root] = fmt.Sprintf("map range at %s:%d", pos.Filename, pos.Line)
				}
			}
		}
		return true
	})

	// exprTaint classifies an expression's taint by walking its subtree.
	exprTaint := func(e ast.Expr) (c bool, cWhy string, m bool, mWhy string) {
		ast.Inspect(e, func(node ast.Node) bool {
			switch v := node.(type) {
			case *ast.CallExpr:
				// A length or capacity is order-insensitive: len(m) of a
				// tainted collection does not carry the taint.
				if id, ok := ast.Unparen(v.Fun).(*ast.Ident); ok {
					if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok && (b.Name() == "len" || b.Name() == "cap") {
						return false
					}
				}
				if callee := prog.resolveCall(pkg, v); callee != nil {
					sum := summaries[callee.Key]
					if sum.clock && !c {
						c, cWhy = true, "via "+shortKey(callee.Key)+": "+sum.clockWhy
					}
					if sum.mapOrder && !m {
						m, mWhy = true, "via "+shortKey(callee.Key)+": "+sum.mapWhy
					}
				}
			case *ast.SelectorExpr:
				if name, ok := wallClockRead(pkg.Info, v); ok {
					if pos := pkg.Fset.Position(v.Pos()); !prog.sourceSuppressed(pos) {
						c, cWhy = true, fmt.Sprintf("time.%s at %s:%d", name, pos.Filename, pos.Line)
					}
				}
			case *ast.Ident:
				if obj := pkg.Info.ObjectOf(v); obj != nil {
					if why, ok := taintedClock[obj]; ok && !c {
						c, cWhy = true, why
					}
					if why, ok := taintedMap[obj]; ok && !m {
						m, mWhy = true, why
					}
				}
			}
			return true
		})
		return c, cWhy, m, mWhy
	}

	// Two forward passes propagate taint through straight-line local
	// assignment chains (x := src(); y := x; return y).
	for pass := 0; pass < 2; pass++ {
		ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
			as, ok := node.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, rhs := range as.Rhs {
				if i >= len(as.Lhs) {
					break
				}
				c, cWhy, m, mWhy := exprTaint(rhs)
				obj := rootIdentObj(pkg.Info, as.Lhs[i])
				if obj == nil {
					continue
				}
				if c {
					taintedClock[obj] = cWhy
				}
				if m {
					taintedMap[obj] = mWhy
				}
			}
			return true
		})
	}

	// A collect-then-sort loop is deterministic: an object handed to a
	// sort call is order-normalized, so its map-order taint is cleared.
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 || !isSortCall(pkg.Info, call) {
			return true
		}
		if obj := rootIdentObj(pkg.Info, call.Args[0]); obj != nil {
			delete(taintedMap, obj)
		}
		return true
	})

	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		if _, isLit := node.(*ast.FuncLit); isLit {
			return false // literals return to their own callers
		}
		ret, ok := node.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			c, cWhy, m, mWhy := exprTaint(res)
			if c && !clock {
				clock, clockWhy = true, cWhy
			}
			if m && !mapOrder {
				mapOrder, mapWhy = true, mWhy
			}
		}
		return true
	})
	return clock, clockWhy, mapOrder, mapWhy
}
