package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// goroutinePkgs are the packages whose goroutines must have a reachable
// teardown: the distributed plane (cluster), the campaign service and
// the streaming prefetcher all promise clean drain/Close semantics, and
// a leaked goroutine there survives a campaign bounce holding buffers
// and connections.
var goroutinePkgs = map[string]bool{
	"cluster": true,
	"service": true,
	"stream":  true,
}

// GoroutineLeak flags goroutines whose blocking channel operations have
// no reachable closer, cancel or drain anywhere in the program: every
// spawn must be dominated by a teardown story (a close() site for the
// channels it receives on, buffering or a drain loop for the channels
// it sends on, or a ctx.Done()/done-channel case in its selects).
var GoroutineLeak = &Analyzer{
	Name:       "goroutineleak",
	Doc:        "goroutines in cluster/service/stream must not block forever: every channel op needs a reachable close/cancel/drain",
	RunProgram: runGoroutineLeak,
}

// chanFacts is the program-wide channel index: which channel "keys"
// have a close() site, a buffered make, or a draining range loop
// anywhere in the module.  Keys are built per expression by chanKeys.
type chanFacts struct {
	closed   map[string]bool
	buffered map[string]bool
	ranged   map[string]bool
}

// chanKeys returns the identity keys of a channel expression, strongest
// first: a struct-field key that survives package boundaries, an object
// key for locals/params, and a weak name key as a last resort (matching
// a close site by bare name under-reports rather than over-reports).
func chanKeys(pkg *Package, e ast.Expr) []string {
	var keys []string
	e = ast.Unparen(e)
	switch v := e.(type) {
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[v]; ok && sel.Kind() == types.FieldVal {
			f := sel.Obj()
			recv := sel.Recv()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			if n, ok := recv.(*types.Named); ok && n.Obj().Pkg() != nil {
				keys = append(keys, fmt.Sprintf("field:%s.%s.%s", n.Obj().Pkg().Path(), n.Obj().Name(), f.Name()))
			}
		}
		keys = append(keys, "name:"+v.Sel.Name)
	case *ast.Ident:
		if obj := pkg.Info.ObjectOf(v); obj != nil && obj.Pos().IsValid() {
			pos := pkg.Fset.Position(obj.Pos())
			keys = append(keys, fmt.Sprintf("obj:%s:%d:%d", pos.Filename, pos.Line, pos.Column))
		}
		keys = append(keys, "name:"+v.Name)
	}
	return keys
}

// chanIndex builds (once) the module-wide close/buffer/drain facts.
func (prog *Program) chanIndex() *chanFacts {
	if prog.chanOnce {
		return prog.chans
	}
	prog.chanOnce = true
	facts := &chanFacts{closed: map[string]bool{}, buffered: map[string]bool{}, ranged: map[string]bool{}}
	mark := func(m map[string]bool, pkg *Package, e ast.Expr) {
		for _, k := range chanKeys(pkg, e) {
			m[k] = true
		}
	}
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch node := n.(type) {
				case *ast.CallExpr:
					if id, ok := ast.Unparen(node.Fun).(*ast.Ident); ok && len(node.Args) > 0 {
						if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok && b.Name() == "close" {
							mark(facts.closed, pkg, node.Args[0])
						}
					}
				case *ast.RangeStmt:
					if t := pkg.Info.TypeOf(node.X); t != nil {
						if _, isChan := t.Underlying().(*types.Chan); isChan {
							mark(facts.ranged, pkg, node.X)
						}
					}
				case *ast.AssignStmt:
					for i, rhs := range node.Rhs {
						if i < len(node.Lhs) && isBufferedMake(pkg, rhs) {
							mark(facts.buffered, pkg, node.Lhs[i])
						}
					}
				case *ast.ValueSpec:
					for i, rhs := range node.Values {
						if i < len(node.Names) && isBufferedMake(pkg, rhs) {
							mark(facts.buffered, pkg, node.Names[i])
						}
					}
				case *ast.KeyValueExpr:
					// Struct literals: Field: make(chan T, n).
					if id, ok := node.Key.(*ast.Ident); ok && isBufferedMake(pkg, node.Value) {
						if obj, ok := pkg.Info.Uses[id].(*types.Var); ok && obj.IsField() {
							facts.buffered["name:"+id.Name] = true
						}
					}
				}
				return true
			})
		}
	}
	prog.chans = facts
	return facts
}

// isBufferedMake reports make(chan T, n) with n not the constant 0.
func isBufferedMake(pkg *Package, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if b, ok := pkg.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "make" {
		return false
	}
	if t := pkg.Info.TypeOf(call.Args[0]); t != nil {
		if _, isChan := t.Underlying().(*types.Chan); !isChan {
			return false
		}
	}
	if v := constValue(pkg.Info, call.Args[1]); v != nil && v.Kind() == constant.Int {
		if n, ok := constant.Int64Val(v); ok && n == 0 {
			return false
		}
	}
	return true
}

// doneNameRe matches the naming convention for teardown channels.
var doneNameRe = regexp.MustCompile(`(?i)(done|quit|stop|close|exit|shutdown|ctx|cancel)`)

func runGoroutineLeak(pass *ProgPass) {
	prog := pass.Prog
	facts := prog.chanIndex()
	for _, n := range prog.Nodes() {
		if !goroutinePkgs[strings.TrimSuffix(n.Pkg.Name, "_test")] {
			continue
		}
		if inTestFileOf(n.Pkg, n.Decl.Pos()) {
			// Test and benchmark goroutines are bounded by wg.Wait and
			// process exit; the teardown contract is a production one.
			continue
		}
		ast.Inspect(n.Decl, func(node ast.Node) bool {
			g, ok := node.(*ast.GoStmt)
			if !ok {
				return true
			}
			if prog.unreachableIn(n, g.Pos()) {
				return true
			}
			body, bodyPkg := spawnedBody(prog, n, g)
			if body == nil {
				return true
			}
			ops := collectBlockingOps(prog, bodyPkg, body, facts, 0, map[string]bool{n.Key: true})
			for _, op := range ops {
				pos := op.pkg.Fset.Position(op.pos)
				pass.Reportf(n.Pkg, g.Pos(),
					"goroutine may block forever on %s at %s:%d with no reachable close/cancel/drain: teardown (drain/Close) must dominate every spawn; guard with ctx.Done()/close or //lint:ignore with the teardown story",
					op.kind, pos.Filename, pos.Line)
				break // one finding per spawn keeps the signal readable
			}
			return true
		})
	}
}

// spawnedBody resolves the function body a go statement executes: a
// literal's body, or the declaration of a statically resolved callee.
func spawnedBody(prog *Program, n *FuncNode, g *ast.GoStmt) (*ast.BlockStmt, *Package) {
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		return lit.Body, n.Pkg
	}
	for _, e := range n.Out {
		if e.Site == g.Call && e.Go && e.Kind == CallStatic && e.Callee.Decl != nil {
			return e.Callee.Decl.Body, e.Callee.Pkg
		}
	}
	return nil, nil
}

// blockingOp is one potentially forever-blocking channel operation.
// pkg owns the position (ops collected from transitive callees live in
// other packages' filesets).
type blockingOp struct {
	kind string
	pos  token.Pos
	pkg  *Package
}

// collectBlockingOps walks a goroutine body (and its static callees, to
// a small depth) and returns unguarded blocking channel operations.
func collectBlockingOps(prog *Program, pkg *Package, body *ast.BlockStmt, facts *chanFacts, depth int, seen map[string]bool) []blockingOp {
	const maxDepth = 3
	var ops []blockingOp
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		switch node := n.(type) {
		case *ast.SendStmt:
			if !inSelectComm(stack, node) && !sendGuarded(pkg, node.Chan, facts) {
				ops = append(ops, blockingOp{kind: "a send to " + types.ExprString(node.Chan), pos: node.Pos(), pkg: pkg})
			}
		case *ast.UnaryExpr:
			if node.Op == token.ARROW && !inSelectComm(stack, node) && !recvGuarded(pkg, node.X, facts) &&
				!semaphoreRelease(pkg, node.X, facts, stack) {
				ops = append(ops, blockingOp{kind: "a receive from " + types.ExprString(node.X), pos: node.Pos(), pkg: pkg})
			}
		case *ast.RangeStmt:
			if t := pkg.Info.TypeOf(node.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan && !recvGuarded(pkg, node.X, facts) {
					ops = append(ops, blockingOp{kind: "a range over " + types.ExprString(node.X), pos: node.Pos(), pkg: pkg})
				}
			}
		case *ast.SelectStmt:
			if !selectGuarded(pkg, node, facts) {
				ops = append(ops, blockingOp{kind: "a select with no default, done case or closable channel", pos: node.Pos(), pkg: pkg})
			}
			// Keep walking: the comm clauses themselves are exempted via
			// inSelectComm (the select was judged as a whole), but ops in
			// the case bodies still block individually.
		case *ast.CallExpr:
			if depth < maxDepth {
				for _, fn := range prog.staticCalleesAt(pkg, node) {
					if fn.Decl == nil || seen[fn.Key] {
						continue
					}
					seen[fn.Key] = true
					ops = append(ops, collectBlockingOps(prog, fn.Pkg, fn.Decl.Body, facts, depth+1, seen)...)
				}
			}
		}
		stack = append(stack, n)
		return true
	})
	return ops
}

// staticCalleesAt resolves a call expression inside pkg to module
// functions (static and method edges only).
func (prog *Program) staticCalleesAt(pkg *Package, call *ast.CallExpr) []*FuncNode {
	var out []*FuncNode
	for _, rc := range prog.resolveCall(pkg, call) {
		if rc.kind == CallStatic {
			out = append(out, rc.node)
		}
	}
	return out
}

// inSelectComm reports whether the node is (part of) a select comm
// clause's communication — those block only until another case fires,
// and selectGuarded judges the select as a whole.
func inSelectComm(stack []ast.Node, n ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		if cc, ok := stack[i].(*ast.CommClause); ok {
			return cc.Comm != nil && cc.Comm.Pos() <= n.Pos() && n.End() <= cc.Comm.End()
		}
		if _, ok := stack[i].(*ast.FuncLit); ok {
			return false
		}
	}
	return false
}

// sendGuarded: the send cannot block forever if the channel is known
// buffered at a make site or drained by a range loop somewhere.
func sendGuarded(pkg *Package, ch ast.Expr, facts *chanFacts) bool {
	for _, k := range chanKeys(pkg, ch) {
		if facts.buffered[k] || facts.ranged[k] {
			return true
		}
	}
	return doneChanExpr(pkg, ch)
}

// semaphoreRelease recognizes the acquire-before-spawn semaphore idiom:
// a deferred receive from a buffered channel is the release half of
// `sem <- struct{}{}; go func() { defer func() { <-sem }() … }` — the
// spawner deposited this goroutine's token before the spawn, so the
// receive always finds one and cannot block.
func semaphoreRelease(pkg *Package, ch ast.Expr, facts *chanFacts, stack []ast.Node) bool {
	buffered := false
	for _, k := range chanKeys(pkg, ch) {
		if facts.buffered[k] {
			buffered = true
			break
		}
	}
	if !buffered {
		return false
	}
	for i := len(stack) - 1; i >= 0; i-- {
		if _, ok := stack[i].(*ast.DeferStmt); ok {
			return true
		}
	}
	return false
}

// recvGuarded: a receive terminates if the channel has a close() site,
// is a context/timer channel, or follows the done-channel convention.
func recvGuarded(pkg *Package, ch ast.Expr, facts *chanFacts) bool {
	for _, k := range chanKeys(pkg, ch) {
		if facts.closed[k] {
			return true
		}
	}
	return doneChanExpr(pkg, ch)
}

// doneChanExpr recognizes expressions that are teardown channels by
// construction: ctx.Done(), time.After/Tick, timer/ticker .C fields,
// and done/quit/stop-named channels.
func doneChanExpr(pkg *Package, e ast.Expr) bool {
	e = ast.Unparen(e)
	switch v := e.(type) {
	case *ast.CallExpr:
		if sel, ok := ast.Unparen(v.Fun).(*ast.SelectorExpr); ok {
			if sel.Sel.Name == "Done" {
				return true
			}
			if path, name := pkgCall(pkg.Info, sel); path == "time" && (name == "After" || name == "Tick") {
				return true
			}
		}
	case *ast.SelectorExpr:
		if v.Sel.Name == "C" || doneNameRe.MatchString(v.Sel.Name) {
			return true
		}
	case *ast.Ident:
		return doneNameRe.MatchString(v.Name)
	}
	return false
}

// selectGuarded reports whether a blocking select (no default) has an
// escape hatch: a default case, a done-ish receive, a receive on a
// closable channel, or a send on a buffered/drained one.
func selectGuarded(pkg *Package, sel *ast.SelectStmt, facts *chanFacts) bool {
	for _, c := range sel.Body.List {
		cc := c.(*ast.CommClause)
		if cc.Comm == nil {
			return true // default
		}
		switch comm := cc.Comm.(type) {
		case *ast.SendStmt:
			if sendGuarded(pkg, comm.Chan, facts) {
				return true
			}
		case *ast.ExprStmt:
			if u, ok := ast.Unparen(comm.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW && recvGuarded(pkg, u.X, facts) {
				return true
			}
		case *ast.AssignStmt:
			for _, rhs := range comm.Rhs {
				if u, ok := ast.Unparen(rhs).(*ast.UnaryExpr); ok && u.Op == token.ARROW && recvGuarded(pkg, u.X, facts) {
					return true
				}
			}
		}
	}
	return false
}
