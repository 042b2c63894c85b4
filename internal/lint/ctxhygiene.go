package lint

import (
	"go/ast"
	"go/types"
)

// ctxSendPkgs are the packages whose channel sends must stay
// cancellation-aware: the distributed plane and the campaign service,
// where a peer can vanish mid-send.
var ctxSendPkgs = map[string]bool{"cluster": true, "service": true}

// CtxHygiene enforces context discipline:
//
//   - context.Context must not be stored in struct fields — a stored
//     context outlives the call tree it belongs to and silently detaches
//     cancellation (the scheduler bounce bugs of PR 2 were this shape);
//   - context.Context must be the first parameter (after any *testing.T
//     / *testing.B / *testing.F), per the standard convention the rest
//     of the tree relies on when threading cancellation;
//   - in ctxSendPkgs, a channel send in a function that has a ctx
//     must sit inside a select — a bare send blocks forever if the peer
//     is gone, which is exactly when cancellation must still win.
var CtxHygiene = &Analyzer{
	Name: "ctxhygiene",
	Doc:  "no stored contexts, ctx-first signatures, no cancellation-blind sends in " + scopeDoc(ctxSendPkgs),
	Run:  runCtxHygiene,
}

func runCtxHygiene(pass *ProgPass) {
	pass.inspect(nil, func(pkg *Package, n ast.Node, stack []ast.Node) {
		switch node := n.(type) {
		case *ast.StructType:
			for _, field := range node.Fields.List {
				if t := pkg.Info.TypeOf(field.Type); t != nil && isContextType(t) {
					name := "embedded"
					if len(field.Names) > 0 {
						name = field.Names[0].Name
					}
					pass.Reportf(pkg, field.Pos(), "context.Context stored in struct field %q: a stored ctx detaches cancellation from the call tree; pass it as a parameter", name)
				}
			}
		case *ast.FuncDecl:
			checkCtxPosition(pass, pkg, node.Type)
		case *ast.FuncLit:
			checkCtxPosition(pass, pkg, node.Type)
		case *ast.SendStmt:
			if ctxSendPkgs[pkg.BaseName()] && !inTestFileOf(pkg, node.Pos()) {
				checkSend(pass, pkg, node, stack)
			}
		}
	})
}

// checkCtxPosition flags a context.Context parameter that is not first
// (testing.T/B/F params may precede it).
func checkCtxPosition(pass *ProgPass, pkg *Package, ft *ast.FuncType) {
	if ft.Params == nil {
		return
	}
	pos := 0
	for _, field := range ft.Params.List {
		t := pkg.Info.TypeOf(field.Type)
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if t != nil && isContextType(t) {
			if pos > 0 {
				pass.Reportf(pkg, field.Pos(), "context.Context is parameter %d: ctx goes first (after *testing.T/B/F) so call sites thread cancellation uniformly", pos)
			}
			return // only the first ctx param matters
		}
		if t == nil || !isTestingParam(t) {
			pos += n
		}
	}
}

func isTestingParam(t interface{ String() string }) bool {
	switch t.String() {
	case "*testing.T", "*testing.B", "*testing.F":
		return true
	}
	return false
}

// checkSend flags `ch <- v` outside a select in any function that has
// a context.Context parameter available to select on.
func checkSend(pass *ProgPass, pkg *Package, send *ast.SendStmt, stack []ast.Node) {
	ft, fn := enclosingFuncType(stack)
	if ft == nil || !funcHasCtxParam(pkg.Info, ft) {
		return
	}
	// Inside a select's comm clause the send is already cancellation-
	// aware (or deliberately prioritized); only bare sends are blind.
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i] == fn {
			break
		}
		if _, ok := stack[i].(*ast.SelectStmt); ok {
			return
		}
	}
	pass.Reportf(pkg, send.Pos(), "cancellation-blind channel send in a function with a ctx: a bare send blocks forever if the receiver is gone; select on ctx.Done() too")
}

func funcHasCtxParam(info *types.Info, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		if t := info.TypeOf(field.Type); t != nil && isContextType(t) {
			return true
		}
	}
	return false
}
