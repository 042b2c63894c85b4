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
// by stable cross-package keys, and the static call graph built on top
// of it.  Packages are memoized — the expensive `go list -export` and
// type-check happen once per driver run, and every analyzer shares the
// result.
type Program struct {
	Pkgs []*Package

	// Funcs indexes every function and method declared in the module by
	// FuncKey.  Each package is type-checked in its own universe (its
	// imports come from export data), so *types.Func identity does not
	// survive package boundaries; string keys do.
	Funcs map[string]*FuncNode

	// nodes holds the same functions in deterministic (key-sorted) order.
	nodes []*FuncNode

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
// order.
func (prog *Program) Timings() []Timing { return prog.timings }

// FuncNode is one function or method declared in the module.
type FuncNode struct {
	Key  string
	Pkg  *Package
	Decl *ast.FuncDecl
	// Out lists the static call edges, in source order.
	Out []CallEdge
}

// CallEdge is one direct call of a declared module function or method.
// Interface-method calls and function values have no edge.
type CallEdge struct {
	Site   *ast.CallExpr
	Callee *FuncNode
	// Go marks the call of a go statement.
	Go bool
}

// NewProgram indexes the packages and builds the call graph.  The
// packages must all belong to one load (module run or testdata mini
// program); cross-package references resolve through FuncKey.
func NewProgram(pkgs []*Package) *Program {
	prog := &Program{
		Pkgs:    pkgs,
		Funcs:   map[string]*FuncNode{},
		ignores: map[string][]ignoreDirective{},
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
				node := &FuncNode{Key: funcKeyOf(pkg, fd, obj), Pkg: pkg, Decl: fd}
				prog.Funcs[node.Key] = node
			}
		}
	}
	for _, n := range prog.Funcs {
		prog.nodes = append(prog.nodes, n)
	}
	sort.Slice(prog.nodes, func(i, j int) bool { return prog.nodes[i].Key < prog.nodes[j].Key })
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

// buildEdges resolves every call in n's body to its static edge.
func (prog *Program) buildEdges(n *FuncNode) {
	var spawned *ast.CallExpr // the call of the last go statement visited
	ast.Inspect(n.Decl, func(node ast.Node) bool {
		switch e := node.(type) {
		case *ast.GoStmt:
			spawned = e.Call
		case *ast.CallExpr:
			if callee := prog.resolveCall(n.Pkg, e); callee != nil {
				n.Out = append(n.Out, CallEdge{Site: e, Callee: callee, Go: e == spawned})
			}
		}
		return true
	})
}

// resolveCall maps a call expression to the module function or method
// it calls directly, or nil.  An interface method has no declaration in
// Funcs, so a call through an interface resolves to nil.
func (prog *Program) resolveCall(pkg *Package, call *ast.CallExpr) *FuncNode {
	var id *ast.Ident
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil
	}
	if obj, ok := pkg.Info.Uses[id].(*types.Func); ok {
		return prog.Funcs[FuncKey(obj)]
	}
	return nil
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
