package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// deterministicPkgs are the packages whose outputs must be bit-identical
// across runs, thread counts and schedulers — the property the golden
// campaign (internal/refcheck/testdata/golden) pins down.  A stray wall
// clock, global rand draw or map-order-dependent accumulation in any of
// them breaks byte-for-byte reproducibility without failing a test.
var deterministicPkgs = map[string]bool{
	"nsga2":      true,
	"ea":         true,
	"deepmd":     true,
	"descriptor": true,
	"neighbor":   true,
	"nn":         true,
	"blas":       true,
	"refcheck":   true,
	"stream":     true,
	// service owes clients restart-invariant campaigns: the same spec
	// must produce byte-identical frontiers across process bounces, so a
	// stray clock or map-order leak in it breaks the resume contract.
	"service": true,
	// wire frames must encode byte-identically for the same message — the
	// cluster golden tests compare campaign artifacts bit for bit, so the
	// codec gets the same no-clock/no-rand discipline.
	"wire": true,
}

// Determinism flags nondeterminism sources in deterministic packages:
// wall-clock reads (time.Now/Since/Until), the global math/rand source,
// and map iteration feeding ordered output or float accumulation.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "no wall clock, global rand, or order-sensitive map iteration in deterministic packages",
	Run:  runDeterminism,
}

var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// globalRandFuncs are the math/rand package-level functions that draw
// from the shared, per-process-seeded global source.  Type references
// (rand.Rand, rand.Source) and constructors (rand.New, rand.NewSource)
// are fine — they are how seeded generators get built.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "NormFloat64": true, "ExpFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
	"N": true, "IntN": true, "Int32": true, "Int32N": true, "Int64N": true,
	"Uint32N": true, "Uint64N": true, "UintN": true, "Uint": true,
}

func runDeterminism(pass *Pass) {
	if !deterministicPkgs[basePkgName(pass)] {
		return
	}
	inspectWithStack(pass.Files, func(n ast.Node, stack []ast.Node) {
		switch node := n.(type) {
		case *ast.SelectorExpr:
			path, name := pkgCall(pass.Info, node)
			switch {
			case path == "time" && wallClockFuncs[name]:
				pass.Reportf(node.Pos(), "time.%s in deterministic package %q: wall-clock reads break bit-identical replay; inject the timestamp at the boundary", name, basePkgName(pass))
			case (path == "math/rand" || path == "math/rand/v2") && globalRandFuncs[name]:
				pass.Reportf(node.Pos(), "global math/rand.%s in deterministic package %q: the shared source is seeded per-process; use a seeded *rand.Rand", name, basePkgName(pass))
			}
		case *ast.RangeStmt:
			checkMapRange(pass, node)
		}
	})
}

// checkMapRange flags `for … := range m` over a map when the loop body
// is order-sensitive: it appends to a slice declared outside the loop,
// accumulates into an outer floating-point variable (float addition is
// not associative, so sum order changes the bits), or writes ordered
// output.  Collect-then-sort loops should sort immediately after and
// carry a //lint:ignore explaining that.
func checkMapRange(pass *Pass, rng *ast.RangeStmt) {
	t := pass.Info.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.AssignStmt:
			switch node.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				for _, lhs := range node.Lhs {
					lt := pass.Info.TypeOf(lhs)
					obj := rootIdentObj(pass.Info, lhs)
					if lt != nil && isFloat(lt) && obj != nil && !declaredWithin(obj, rng) {
						pass.Reportf(rng.Pos(), "map iteration accumulates into float %q: float addition is order-sensitive and map order is random; iterate sorted keys", obj.Name())
						return false
					}
				}
			case token.ASSIGN, token.DEFINE:
				// x = append(x, …) with x declared outside the loop.
				for i, rhs := range node.Rhs {
					call, ok := rhs.(*ast.CallExpr)
					if !ok || !isBuiltinAppend(pass.Info, call) || i >= len(node.Lhs) {
						continue
					}
					obj := rootIdentObj(pass.Info, node.Lhs[i])
					if obj != nil && !declaredWithin(obj, rng) {
						pass.Reportf(rng.Pos(), "map iteration appends to %q in random order; collect-then-sort (and //lint:ignore with that reason) or iterate sorted keys", obj.Name())
						return false
					}
				}
			}
		case *ast.CallExpr:
			if name, ok := orderedOutputCall(pass.Info, node); ok {
				pass.Reportf(rng.Pos(), "map iteration feeds ordered output via %s; map order is random — iterate sorted keys", name)
				return false
			}
			if isSubtestRun(pass.Info, node) {
				pass.Reportf(rng.Pos(), "map iteration registers subtests/benchmarks in random order; -run output and bench tables reorder between runs — iterate a sorted slice")
				return false
			}
		}
		return true
	})
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// orderedOutputCall reports calls that emit ordered bytes: fmt printers
// that write (Sprintf and friends only build strings and are judged by
// where their result flows) and Write/Encode-family methods.
func orderedOutputCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if path, name := pkgCall(info, sel); path == "fmt" {
		switch name {
		case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
			return "fmt." + name, true
		}
		return "", false
	}
	switch sel.Sel.Name {
	case "Write", "WriteString", "WriteByte", "WriteRune", "Encode", "Print", "Printf", "Println", "Fprintf", "Fprintln":
		return sel.Sel.Name, true
	}
	return "", false
}

// isSubtestRun reports t.Run/b.Run/f.Run calls on testing receivers:
// registration order is part of the observable test/bench output.
func isSubtestRun(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Run" {
		return false
	}
	recv := info.TypeOf(sel.X)
	return recv != nil && isTestingParam(recv)
}
