package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"time"
)

// Program is the whole-module view every analyzer runs over: every
// module package loaded and type-checked once, a function index keyed
// by stable cross-package keys, and the call graph built on top of it.  Packages are memoized — the expensive `go list -export`
// and type-check happen once per driver run, and every analyzer shares
// the result.
type Program struct {
	Pkgs []*Package

	// Funcs indexes every function and method declared in the module by
	// FuncKey.  Each package is type-checked in its own universe (its
	// imports come from export data), so *types.Func identity does not
	// survive package boundaries; string keys do.
	Funcs map[string]*FuncNode

	// nodes holds the same functions in deterministic (key-sorted) order.
	nodes []*FuncNode

	// methodIndex maps a method name to every concrete (non-interface
	// receiver) method in the module, for interface-dispatch resolution.
	methodIndex map[string][]*FuncNode

	ignores  map[string][]ignoreDirective // file -> parsed //lint:ignore directives
	ignBad   []Diagnostic                 // malformed/unknown-rule directive findings
	timings  []Timing
	chanOnce bool
	chans    *chanFacts
}

// Timing is one analyzer's wall-clock cost in the last Program.Run.
type Timing struct {
	Name     string
	Duration time.Duration
}

// Timings returns per-analyzer wall times from the last Run, in run
// order, with the pseudo-entries "load" (set by LoadProgram) first.
func (prog *Program) Timings() []Timing { return prog.timings }

// FuncNode is one function or method declared in the module.
type FuncNode struct {
	Key  string
	Pkg  *Package
	Decl *ast.FuncDecl
	Obj  *types.Func
	// Out lists resolved outgoing call edges, in source order.
	Out []CallEdge

	cfg *CFG
}

// CallKind classifies how a call edge was resolved.
type CallKind int

const (
	// CallStatic is a direct call of a declared function or method.
	CallStatic CallKind = iota
	// CallDynamic is an interface-method call, resolved to every
	// concrete method in the module with a compatible name and shape.
	CallDynamic
	// CallRef is a function or method value referenced without being
	// called (stored, passed, or returned); it may be called later.
	CallRef
)

// CallEdge is one resolved outgoing call from a FuncNode.
type CallEdge struct {
	Kind   CallKind
	Site   ast.Node // the *ast.CallExpr, or the reference expression for CallRef
	Callee *FuncNode
	// Go and Deferred mark call sites inside go / defer statements.
	Go       bool
	Deferred bool
}

// NewProgram indexes the packages and builds the call graph.  The
// packages must all belong to one load (module run or testdata mini
// program); cross-package references resolve through FuncKey.
func NewProgram(pkgs []*Package) *Program {
	prog := &Program{
		Pkgs:        pkgs,
		Funcs:       map[string]*FuncNode{},
		methodIndex: map[string][]*FuncNode{},
		ignores:     map[string][]ignoreDirective{},
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				node := &FuncNode{Key: funcKeyOf(pkg, fd, obj), Pkg: pkg, Decl: fd, Obj: obj}
				prog.Funcs[node.Key] = node
				if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
					if _, isIface := recv.Type().Underlying().(*types.Interface); !isIface {
						prog.methodIndex[obj.Name()] = append(prog.methodIndex[obj.Name()], node)
					}
				}
			}
		}
	}
	for _, n := range prog.Funcs {
		prog.nodes = append(prog.nodes, n)
	}
	sort.Slice(prog.nodes, func(i, j int) bool { return prog.nodes[i].Key < prog.nodes[j].Key })
	for _, name := range sortedKeys(prog.methodIndex) {
		ms := prog.methodIndex[name]
		sort.Slice(ms, func(i, j int) bool { return ms[i].Key < ms[j].Key })
	}
	for _, n := range prog.nodes {
		prog.buildEdges(n)
	}
	prog.parseAllIgnores()
	return prog
}

// Nodes returns every function in the program in deterministic order.
func (prog *Program) Nodes() []*FuncNode { return prog.nodes }

// FuncKey returns the stable cross-package key of a function object:
// "pkgpath.Name" for package functions, "pkgpath.Recv.Name" for
// methods.  Generic instantiations key to their origin.
func FuncKey(obj *types.Func) string {
	obj = obj.Origin()
	sig, _ := obj.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			pkgPath := ""
			if n.Obj().Pkg() != nil {
				pkgPath = n.Obj().Pkg().Path()
			}
			return pkgPath + "." + n.Obj().Name() + "." + obj.Name()
		}
		return t.String() + "." + obj.Name()
	}
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// funcKeyOf keys a declaration; init functions (which collide by name
// and are never called) are disambiguated by position.
func funcKeyOf(pkg *Package, fd *ast.FuncDecl, obj *types.Func) string {
	key := FuncKey(obj)
	if fd.Recv == nil && fd.Name.Name == "init" {
		pos := pkg.Fset.Position(fd.Pos())
		return fmt.Sprintf("%s@%s:%d", key, pos.Filename, pos.Line)
	}
	return key
}

// buildEdges resolves every call and function-value reference in n's
// body to call-graph edges.
func (prog *Program) buildEdges(n *FuncNode) {
	var stack []ast.Node
	ast.Inspect(n.Decl, func(node ast.Node) bool {
		if node == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		switch e := node.(type) {
		case *ast.CallExpr:
			inGo, inDefer := spawnContext(stack, e)
			for _, callee := range prog.resolveCall(n.Pkg, e) {
				prog.addEdge(n, CallEdge{Kind: callee.kind, Site: e, Callee: callee.node, Go: inGo, Deferred: inDefer})
			}
		case *ast.SelectorExpr:
			// Method values: s.Method referenced outside call position
			// allocates a bound-method closure and may be called later.
			if !isCallFun(stack, e) {
				if obj := methodObj(n.Pkg.Info, e); obj != nil {
					if callee := prog.Funcs[FuncKey(obj)]; callee != nil {
						prog.addEdge(n, CallEdge{Kind: CallRef, Site: e, Callee: callee})
					}
				}
			}
		case *ast.Ident:
			// Plain function values passed around.
			if !isCallFun(stack, e) && !isDeclName(stack, e) {
				if obj, ok := n.Pkg.Info.Uses[e].(*types.Func); ok && obj.Type().(*types.Signature).Recv() == nil {
					if callee := prog.Funcs[FuncKey(obj)]; callee != nil {
						prog.addEdge(n, CallEdge{Kind: CallRef, Site: e, Callee: callee})
					}
				}
			}
		}
		stack = append(stack, node)
		return true
	})
}

func (prog *Program) addEdge(n *FuncNode, e CallEdge) { n.Out = append(n.Out, e) }

type resolvedCallee struct {
	node *FuncNode
	kind CallKind
}

// resolveCall maps a call expression to its possible module callees.
func (prog *Program) resolveCall(pkg *Package, call *ast.CallExpr) []resolvedCallee {
	fun := ast.Unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.Ident:
		if obj, ok := pkg.Info.Uses[f].(*types.Func); ok {
			if n := prog.Funcs[FuncKey(obj)]; n != nil {
				return []resolvedCallee{{n, CallStatic}}
			}
		}
	case *ast.SelectorExpr:
		obj := methodObj(pkg.Info, f)
		if obj == nil {
			// Package-qualified function: pkg.Fn.
			if o, ok := pkg.Info.Uses[f.Sel].(*types.Func); ok {
				if n := prog.Funcs[FuncKey(o)]; n != nil {
					return []resolvedCallee{{n, CallStatic}}
				}
			}
			return nil
		}
		sig := obj.Type().(*types.Signature)
		if sig.Recv() != nil {
			if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
				return prog.resolveDynamic(obj)
			}
		}
		if n := prog.Funcs[FuncKey(obj)]; n != nil {
			return []resolvedCallee{{n, CallStatic}}
		}
	}
	return nil
}

// resolveDynamic returns interface-dispatch edges: every concrete
// module method with the called name and a compatible shape.  Shape
// matching is by parameter/result count — packages type-check in
// separate universes, so nominal types.Implements checks would miss
// cross-package implementations.
func (prog *Program) resolveDynamic(iface *types.Func) []resolvedCallee {
	isig := iface.Type().(*types.Signature)
	var out []resolvedCallee
	for _, cand := range prog.methodIndex[iface.Name()] {
		csig := cand.Obj.Type().(*types.Signature)
		if csig.Params().Len() == isig.Params().Len() && csig.Results().Len() == isig.Results().Len() {
			out = append(out, resolvedCallee{cand, CallDynamic})
		}
	}
	return out
}

// methodObj returns the *types.Func of a method selection, or nil if
// sel is not a method reference.
func methodObj(info *types.Info, sel *ast.SelectorExpr) *types.Func {
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
		if f, ok := s.Obj().(*types.Func); ok {
			return f
		}
	}
	return nil
}

// spawnContext reports whether call is the immediate call of a go or
// defer statement in stack.
func spawnContext(stack []ast.Node, call *ast.CallExpr) (inGo, inDefer bool) {
	if len(stack) == 0 {
		return false, false
	}
	switch s := stack[len(stack)-1].(type) {
	case *ast.GoStmt:
		return s.Call == call, false
	case *ast.DeferStmt:
		return false, s.Call == call
	}
	return false, false
}

// isCallFun reports whether e is the function operand of its parent
// call expression (stack holds ancestors, innermost last).
func isCallFun(stack []ast.Node, e ast.Expr) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr:
			continue
		case *ast.CallExpr:
			return ast.Unparen(p.Fun) == e
		case *ast.SelectorExpr:
			// e is the Sel of a selector; judge the selector itself.
			if p.Sel == e {
				e = p
				continue
			}
			return false
		default:
			return false
		}
	}
	return false
}

// isDeclName reports whether id is the name being declared by its
// parent (func decl, assignment define, etc.) rather than a use.
func isDeclName(stack []ast.Node, id *ast.Ident) bool {
	if len(stack) == 0 {
		return false
	}
	switch p := stack[len(stack)-1].(type) {
	case *ast.FuncDecl:
		return p.Name == id
	case *ast.Field:
		for _, n := range p.Names {
			if n == id {
				return true
			}
		}
	}
	return false
}

// CFG returns (building and memoizing on first use) n's control-flow
// graph.
func (prog *Program) CFG(n *FuncNode) *CFG {
	if n.cfg == nil {
		n.cfg = BuildCFG(n.Decl.Body)
	}
	return n.cfg
}

// unreachableIn reports whether pos falls inside a statically
// unreachable statement of n's body.
func (prog *Program) unreachableIn(n *FuncNode, pos token.Pos) bool {
	for _, s := range prog.CFG(n).Unreachable() {
		if s.Pos() <= pos && pos < s.End() {
			return true
		}
	}
	return false
}

// parseAllIgnores parses every package's //lint:ignore directives once,
// validating rule names against the registered analyzer set.
func (prog *Program) parseAllIgnores() {
	for _, pkg := range prog.Pkgs {
		dirs, bad := parseIgnores(pkg)
		for _, d := range dirs {
			prog.ignores[d.file] = append(prog.ignores[d.file], d)
		}
		prog.ignBad = append(prog.ignBad, bad...)
	}
}

// suppressedAt reports whether rule is suppressed by an ignore
// directive on line or line-1 of file.  Interprocedural analyzers use
// it to keep suppressed sites out of their summaries (a collect-then-
// sort map range with a reasoned ignore must not taint its callers).
func (prog *Program) suppressedAt(file string, line int, rule string) bool {
	for _, dir := range prog.ignores[file] {
		if dir.rules[rule] && (dir.line == line || dir.line == line-1) {
			return true
		}
	}
	return false
}

// Run executes each analyzer once over the whole program, drops the
// findings a //lint:ignore covers, and returns the rest sorted, with the
// malformed-directive findings.  Per-analyzer wall times are recorded
// for Timings.
func (prog *Program) Run(analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	prog.timings = prog.timings[:0]
	for _, a := range analyzers {
		start := time.Now()
		a.Run(&ProgPass{Prog: prog, diags: &diags, rule: a.Name})
		prog.timings = append(prog.timings, Timing{Name: a.Name, Duration: time.Since(start)})
	}
	diags = prog.filterIgnored(diags)
	diags = append(diags, prog.ignBad...)
	sortDiags(diags)
	return diags
}

// filterIgnored drops diagnostics covered by a same-line or line-above
// //lint:ignore directive anywhere in the program.
func (prog *Program) filterIgnored(diags []Diagnostic) []Diagnostic {
	out := diags[:0]
	for _, d := range diags {
		if prog.suppressedAt(d.Pos.Filename, d.Pos.Line, d.Rule) {
			continue
		}
		out = append(out, d)
	}
	return out
}

// ProgPass carries the whole program through one analyzer.
type ProgPass struct {
	Prog  *Program
	diags *[]Diagnostic
	rule  string
}

// Reportf records a diagnostic at pos, resolved through pkg's file set.
func (p *ProgPass) Reportf(pkg *Package, pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:  pkg.Fset.Position(pos),
		Rule: p.rule,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// inspect walks every file of every package whose base name scope
// admits (a nil scope admits all), calling fn with the package, each
// node and the stack of its ancestors (outermost first, not including
// the node itself).  It is how the package-local rules visit the program.
func (p *ProgPass) inspect(scope map[string]bool, fn func(pkg *Package, n ast.Node, stack []ast.Node)) {
	for _, pkg := range p.Prog.Pkgs {
		if scope != nil && !scope[pkg.BaseName()] {
			continue
		}
		for _, f := range pkg.Files {
			var stack []ast.Node
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return false
				}
				fn(pkg, n, stack)
				stack = append(stack, n)
				return true
			})
		}
	}
}

func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
