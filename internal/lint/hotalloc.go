package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// HotAlloc enforces the 0-allocs/op contract on functions annotated
//
//	//lint:hot
//
// (the nn/descriptor/deepmd/wire steady-state paths pinned by the
// TestSteadyStateAllocs family): the annotated function and everything
// it calls, transitively over static edges, must contain no per-call
// allocation sites.  Flagged shapes:
//
//   - make/new and slice/map composite literals, and &T{} literals,
//     unless amortized (guarded by a len/cap/nil check, behind a warm
//     early-return, or on a cold error/panic path);
//   - append that can grow a per-call slice (appending to reusable
//     storage — struct fields, caller-owned parameters, or locals
//     re-rooted from them with the buf[:0] idiom — is the project's
//     amortized-buffer pattern and is exempt);
//   - interface boxing: passing a non-pointer concrete value to an
//     interface-typed parameter, including variadic ...any calls;
//   - escaping closures and bound method values: function literals
//     that capture variables and leave the frame (returned, stored in
//     a field or global, or spawned) allocate per call.  A capturing
//     literal that stays local is left to the compiler's escape
//     analysis — the alloc tests pin the truth.
//
// Call edges taken only on guarded or cold paths (a cache-miss branch,
// an error path) do not pull their callees into the hot closure.
//
// A //lint:hot directive that does not attach to a function
// declaration is itself a finding — a misplaced annotation must not
// silently protect nothing.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "//lint:hot functions and their transitive callees must be allocation-free in steady state",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *ProgPass) {
	prog := pass.Prog
	for _, o := range prog.hotOrphans {
		pass.Reportf(o.pkg, o.pos, "//lint:hot is not attached to a function declaration: the annotation protects nothing here; put it in the doc comment of the hot function")
	}

	roots := prog.HotRoots()
	if len(roots) == 0 {
		return
	}
	// closure: hot function key -> root keys that reach it.
	reached := map[string][]string{}
	for _, root := range roots {
		var walk func(n *FuncNode)
		seen := map[string]bool{}
		walk = func(n *FuncNode) {
			if seen[n.Key] {
				return
			}
			seen[n.Key] = true
			reached[n.Key] = append(reached[n.Key], shortKey(root.Key))
			for _, e := range n.Out {
				// Static calls only: dynamic dispatch on a hot path is
				// itself suspect but resolving it name-wide would drag
				// unrelated methods into the closure.
				if e.Kind != CallStatic || e.Go {
					continue
				}
				if coldCallSite(n, e) {
					continue // cache-miss / error-branch call: not steady state
				}
				walk(e.Callee)
			}
		}
		walk(root)
	}

	var keys []string
	for k := range reached {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		n := prog.Funcs[k]
		if n == nil || strings.HasSuffix(n.Pkg.Fset.Position(n.Decl.Pos()).Filename, "_test.go") {
			continue
		}
		rootsNote := describeRoots(reached[k], shortKey(k))
		checkAllocSites(pass, prog, n, rootsNote)
	}
}

// coldCallSite reports whether a call edge is taken only off the steady
// path: the site sits under an amortizing guard or on a cold branch in
// its caller.
func coldCallSite(n *FuncNode, e CallEdge) bool {
	if e.Site == nil {
		return false
	}
	f := fileOf(n.Pkg, e.Site.Pos())
	if f == nil {
		return false
	}
	stack := pathEnclosing(f, e.Site.Pos())
	return amortizedOrCold(n.Pkg, stack)
}

// fileOf returns the package file whose positions cover pos.
func fileOf(pkg *Package, pos token.Pos) *ast.File {
	for _, f := range pkg.Files {
		if f.Pos() <= pos && pos <= f.End() {
			return f
		}
	}
	return nil
}

// describeRoots renders the hot roots a function serves, deduplicated.
func describeRoots(roots []string, self string) string {
	seen := map[string]bool{}
	var uniq []string
	for _, r := range roots {
		if !seen[r] {
			seen[r] = true
			uniq = append(uniq, r)
		}
	}
	sort.Strings(uniq)
	if len(uniq) == 1 && uniq[0] == self {
		return "//lint:hot " + self
	}
	if len(uniq) > 2 {
		uniq = append(uniq[:2], "…")
	}
	return "//lint:hot path " + strings.Join(uniq, ", ")
}

// checkAllocSites reports per-call allocation sites in one function of
// the hot closure.
func checkAllocSites(pass *ProgPass, prog *Program, n *FuncNode, rootsNote string) {
	pkg := n.Pkg
	reuse := reuseRootedLocals(pkg, n.Decl)
	var stack []ast.Node
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		if node == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		if prog.unreachableIn(n, node.Pos()) {
			stack = append(stack, node)
			return true
		}
		switch v := node.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(v.Fun).(*ast.Ident); ok {
				if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
					switch b.Name() {
					case "make", "new":
						if !amortizedOrCold(pkg, stack) {
							pass.Reportf(pkg, v.Pos(), "%s in %s allocates every call: hoist the buffer into the reusable trace/scratch or guard it with a capacity check", b.Name(), rootsNote)
						}
					case "append":
						if appendMayGrow(pkg, n.Decl, v, reuse) && !amortizedOrCold(pkg, stack) {
							pass.Reportf(pkg, v.Pos(), "append in %s may grow a per-call slice: reuse a field/parameter buffer or append(buf[:0], …) over a pre-sized one", rootsNote)
						}
					}
					break
				}
			}
			checkBoxingCall(pass, pkg, v, stack, rootsNote)
		case *ast.CompositeLit:
			if allocatingLit(pkg, v, stack) && !amortizedOrCold(pkg, stack) {
				pass.Reportf(pkg, v.Pos(), "composite literal in %s escapes to the heap every call: hoist it into a reused buffer or the setup path", rootsNote)
			}
		case *ast.FuncLit:
			if capturesEnvironment(pkg, v) && escapesFrame(pkg, stack) && !amortizedOrCold(pkg, stack) {
				pass.Reportf(pkg, v.Pos(), "closure in %s captures variables and escapes, allocating per call: hoist the capture into a struct method or pass parameters explicitly", rootsNote)
			}
			stack = append(stack, node)
			return true
		case *ast.SelectorExpr:
			// Bound method value: x.M stored or returned allocates a
			// closure.  Passed as a plain call argument it usually stays
			// on the stack — the alloc tests arbitrate that case.
			if !isCallFun(stack, v) && methodObj(pkg.Info, v) != nil && escapesFrame(pkg, stack) && !amortizedOrCold(pkg, stack) {
				pass.Reportf(pkg, v.Pos(), "method value %s in %s escapes and allocates a bound closure per call: call it directly or hoist it", types.ExprString(v), rootsNote)
			}
		}
		stack = append(stack, node)
		return true
	})
}

// escapesFrame reports whether the closure/method value at the top of
// the walk leaves its creating frame: returned, assigned to a field or
// package-level variable, or handed to go/defer.  Local use is left to
// escape analysis.
func escapesFrame(pkg *Package, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr:
			continue
		case *ast.ReturnStmt:
			return true
		case *ast.GoStmt, *ast.DeferStmt:
			return true
		case *ast.AssignStmt:
			for _, lhs := range p.Lhs {
				switch l := ast.Unparen(lhs).(type) {
				case *ast.SelectorExpr:
					return true // field (or qualified global) store
				case *ast.Ident:
					if obj := pkg.Info.ObjectOf(l); obj != nil {
						if v, ok := obj.(*types.Var); ok && v.Parent() == v.Pkg().Scope() {
							return true // package-level variable
						}
					}
				}
			}
			return false
		case *ast.CallExpr, *ast.CompositeLit, *ast.KeyValueExpr:
			continue // keep looking for the consuming statement
		default:
			return false
		}
	}
	return false
}

// allocatingLit reports composite literals that heap-allocate: slice
// and map literals always do; struct/array literals only when their
// address is taken (&T{…} escaping).
func allocatingLit(pkg *Package, lit *ast.CompositeLit, stack []ast.Node) bool {
	t := pkg.Info.TypeOf(lit)
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map:
		return true
	}
	if len(stack) > 0 {
		if u, ok := stack[len(stack)-1].(*ast.UnaryExpr); ok && u.X == lit {
			return true // &T{…}
		}
	}
	return false
}

// reuseRootedLocals finds locals re-rooted from reusable storage: a
// local assigned from a struct field or parameter (typically with the
// buf[:0] reset idiom, `leases := d.leases[:0]`) carries the caller's
// amortized buffer, so appending to it grows once and then never again.
func reuseRootedLocals(pkg *Package, decl *ast.FuncDecl) map[types.Object]bool {
	reuse := map[types.Object]bool{}
	params := map[types.Object]bool{}
	if decl.Type.Params != nil {
		for _, field := range decl.Type.Params.List {
			for _, name := range field.Names {
				if obj := pkg.Info.ObjectOf(name); obj != nil {
					params[obj] = true
				}
			}
		}
	}
	rootedExpr := func(e ast.Expr) bool {
		e = ast.Unparen(e)
		if s, ok := e.(*ast.SliceExpr); ok {
			e = ast.Unparen(s.X)
		}
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if sel, ok := pkg.Info.Selections[x]; ok && sel.Kind() == types.FieldVal {
				return true
			}
		case *ast.Ident:
			obj := pkg.Info.ObjectOf(x)
			return obj != nil && (params[obj] || reuse[obj])
		}
		return false
	}
	// Two passes so chains (a := d.buf[:0]; b := a) resolve.
	for i := 0; i < 2; i++ {
		ast.Inspect(decl.Body, func(node ast.Node) bool {
			as, ok := node.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for j, rhs := range as.Rhs {
				if j >= len(as.Lhs) {
					break
				}
				id, ok := ast.Unparen(as.Lhs[j]).(*ast.Ident)
				if !ok {
					continue
				}
				if rootedExpr(rhs) {
					if obj := pkg.Info.ObjectOf(id); obj != nil {
						reuse[obj] = true
					}
				}
			}
			return true
		})
	}
	for o := range params {
		reuse[o] = true
	}
	return reuse
}

// appendMayGrow reports appends whose destination is per-call storage.
// Appending to reusable storage — a struct field, a caller-owned
// parameter, a local re-rooted from either, or the buf[:0] reset — is
// the amortized-buffer idiom: it grows while warming and then stays.
func appendMayGrow(pkg *Package, decl *ast.FuncDecl, call *ast.CallExpr, reuse map[types.Object]bool) bool {
	if len(call.Args) == 0 {
		return false
	}
	dst := ast.Unparen(call.Args[0])
	if s, ok := dst.(*ast.SliceExpr); ok {
		if s.Low == nil || isZeroConst(pkg, s.Low) {
			if s.High != nil && isZeroConst(pkg, s.High) {
				return false // append(buf[:0], …)
			}
		}
		dst = ast.Unparen(s.X)
	}
	switch v := dst.(type) {
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[v]; ok && sel.Kind() == types.FieldVal {
			return false // field-backed reusable buffer
		}
	case *ast.Ident:
		if obj := pkg.Info.ObjectOf(v); obj != nil && reuse[obj] {
			return false
		}
	}
	return true
}

func isZeroConst(pkg *Package, e ast.Expr) bool {
	v := constValue(pkg.Info, e)
	return v != nil && v.String() == "0"
}

// checkBoxingCall flags interface boxing at call sites: non-pointer
// concrete arguments passed to interface parameters, and non-empty
// interface-element variadic calls.
func checkBoxingCall(pass *ProgPass, pkg *Package, call *ast.CallExpr, stack []ast.Node, rootsNote string) {
	sigT := pkg.Info.TypeOf(call.Fun)
	sig, ok := sigT.(*types.Signature)
	if !ok {
		return // conversion or built-in
	}
	if amortizedOrCold(pkg, stack) {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var paramT types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			last := params.At(params.Len() - 1).Type()
			if sl, ok := last.(*types.Slice); ok {
				paramT = sl.Elem()
			}
			if call.Ellipsis.IsValid() {
				paramT = last // s... passes the slice through, no boxing
			}
		case i < params.Len():
			paramT = params.At(i).Type()
		}
		if paramT == nil {
			continue
		}
		if _, isIface := paramT.Underlying().(*types.Interface); !isIface {
			continue
		}
		argT := pkg.Info.TypeOf(arg)
		if argT == nil || !boxes(argT) {
			continue
		}
		if v := constValue(pkg.Info, arg); v != nil {
			continue // constants box to static data
		}
		pass.Reportf(pkg, arg.Pos(), "argument %s boxes into an interface in %s and allocates per call: keep the hot path monomorphic or pass a pointer", types.ExprString(arg), rootsNote)
	}
}

// boxes reports whether converting a value of type t to an interface
// allocates: pointers, channels, maps, funcs and unsafe pointers fit
// the interface data word; everything else is copied to the heap.
func boxes(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Interface:
		return false // already an interface
	case *types.Basic:
		return u.Kind() != types.UnsafePointer && u.Kind() != types.UntypedNil
	}
	return true
}

// amortizedOrCold reports whether a site sits on a path that does not
// run in steady state:
//
//   - inside an if/case whose condition mentions a len/cap/nil check
//     (the grow-on-demand idiom) or whose body terminates in a panic or
//     error return (failure paths), or
//   - after a warm early-return — an earlier if in the same block whose
//     amortizing condition returns, so only the cache-miss path falls
//     through to the site.
func amortizedOrCold(pkg *Package, stack []ast.Node) bool {
	var child ast.Node
	for i := len(stack) - 1; i >= 0; i-- {
		switch s := stack[i].(type) {
		case *ast.IfStmt:
			if condIsAmortizing(pkg, s.Cond) || blockIsCold(s.Body) {
				return true
			}
		case *ast.CaseClause:
			if blockIsColdStmts(s.Body) {
				return true
			}
		case *ast.BlockStmt:
			if child != nil && warmEarlyReturnBefore(pkg, s, child) {
				return true
			}
		}
		child = stack[i]
	}
	return false
}

// warmEarlyReturnBefore reports an amortizing early-return guard among
// the statements preceding child in block:
//
//	if cap(d.buf) >= n { …; return d.buf, nil }   // warm path leaves here
//	buf = append(buf, make([]byte, c)...)         // ← only the miss reaches this
func warmEarlyReturnBefore(pkg *Package, block *ast.BlockStmt, child ast.Node) bool {
	for _, st := range block.List {
		if st == child || st.Pos() >= child.Pos() {
			break
		}
		ifs, ok := st.(*ast.IfStmt)
		if !ok || !condIsAmortizing(pkg, ifs.Cond) {
			continue
		}
		if list := ifs.Body.List; len(list) > 0 {
			if _, isRet := list[len(list)-1].(*ast.ReturnStmt); isRet {
				return true
			}
		}
	}
	return false
}

// condIsAmortizing matches len/cap/nil-comparison conditions.
func condIsAmortizing(pkg *Package, cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(v.Fun).(*ast.Ident); ok {
				if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok && (b.Name() == "len" || b.Name() == "cap") {
					found = true
					return false
				}
			}
		case *ast.Ident:
			if v.Name == "nil" {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func blockIsCold(b *ast.BlockStmt) bool { return blockIsColdStmts(b.List) }

// blockIsColdStmts: the branch ends in panic or returns a non-nil
// error-ish value — a failure path that steady state never takes.
func blockIsColdStmts(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch last := list[len(list)-1].(type) {
	case *ast.ExprStmt:
		return isTerminatingCall(last.X)
	case *ast.ReturnStmt:
		for _, r := range last.Results {
			switch v := r.(type) {
			case *ast.Ident:
				if strings.Contains(strings.ToLower(v.Name), "err") {
					return true
				}
			case *ast.CallExpr:
				if sel, ok := ast.Unparen(v.Fun).(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && (x.Name == "fmt" || x.Name == "errors") {
						return true
					}
				}
			}
		}
	}
	return false
}

// capturesEnvironment reports whether a function literal references
// objects declared outside itself (captured variables force a heap
// closure; a capture-free literal compiles to a static function).
func capturesEnvironment(pkg *Package, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pkg.Info.Uses[id]
		v, isVar := obj.(*types.Var)
		if !isVar || v.IsField() {
			return true
		}
		// Package-level variables are not captures.
		if v.Parent() != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return true
		}
		if v.Pos().IsValid() && (v.Pos() < lit.Pos() || v.Pos() >= lit.End()) {
			captured = true
			return false
		}
		return true
	})
	return captured
}
