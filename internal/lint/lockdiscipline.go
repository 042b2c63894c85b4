package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockDiscipline enforces two lock invariants go vet does not fully
// cover:
//
//   - sync.Mutex / sync.RWMutex / sync.WaitGroup passed or returned by
//     value (a copied lock guards nothing; vet's copylocks catches many
//     copies but not signature-level ones in all positions);
//   - a Lock()/RLock() whose matching Unlock is neither deferred nor
//     reached before a return statement — an early return on that path
//     leaks the lock and deadlocks the next caller.
//
// Deliberate unlock-before-blocking patterns (drop the lock, then wait)
// pass as long as no return sits between Lock and the first matching
// explicit Unlock; genuinely intentional leaks (lock handoff) take a
// //lint:ignore with the reason.
var LockDiscipline = &Analyzer{
	Name: "lockdiscipline",
	Doc:  "no by-value locks in signatures, no returns while a lock is held without defer",
	Run:  runLockDiscipline,
}

var syncValueTypes = []string{"Mutex", "RWMutex", "WaitGroup"}

func runLockDiscipline(pass *ProgPass) {
	pass.inspect(nil, func(pkg *Package, n ast.Node, _ []ast.Node) {
		switch node := n.(type) {
		case *ast.FuncDecl:
			checkSignature(pass, pkg, node.Type)
			if node.Body != nil {
				checkLockPaths(pass, pkg, node.Body)
			}
		case *ast.FuncLit:
			checkSignature(pass, pkg, node.Type)
			checkLockPaths(pass, pkg, node.Body)
		}
	})
}

// checkSignature flags by-value sync.Mutex/RWMutex/WaitGroup parameters
// and results.
func checkSignature(pass *ProgPass, pkg *Package, ft *ast.FuncType) {
	check := func(fl *ast.FieldList, kind string) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			t := pkg.Info.TypeOf(field.Type)
			if t == nil {
				continue
			}
			if _, isPtr := t.(*types.Pointer); isPtr {
				continue
			}
			for _, name := range syncValueTypes {
				if isNamedType(t, "sync", name) {
					pass.Reportf(pkg, field.Pos(), "sync.%s %s by value: the copy guards nothing; pass *sync.%s", name, kind, name)
				}
			}
		}
	}
	check(ft.Params, "parameter")
	check(ft.Results, "result")
}

// lockCall describes one X.Lock()/X.RLock() statement.
type lockCall struct {
	pos    token.Pos
	key    string // printed receiver expression, e.g. "s.mu"
	unlock string // matching unlock method name
}

// checkLockPaths analyzes one function body (nested function literals
// are analyzed separately when the walker reaches them).
func checkLockPaths(pass *ProgPass, pkg *Package, body *ast.BlockStmt) {
	var (
		locks    []lockCall
		unlocks  = map[string][]token.Pos{} // key+name -> explicit unlock positions
		deferred = map[string]bool{}        // key+name -> deferred
		returns  []token.Pos
	)
	record := func(n ast.Node, inDefer bool) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !isSyncLockerRecv(pkg.Info, sel.X) {
			return
		}
		key := types.ExprString(sel.X)
		switch sel.Sel.Name {
		case "Lock":
			if !inDefer {
				locks = append(locks, lockCall{call.Pos(), key, "Unlock"})
			}
		case "RLock":
			if !inDefer {
				locks = append(locks, lockCall{call.Pos(), key, "RUnlock"})
			}
		case "Unlock", "RUnlock":
			if inDefer {
				deferred[key+"."+sel.Sel.Name] = true
			} else {
				unlocks[key+"."+sel.Sel.Name] = append(unlocks[key+"."+sel.Sel.Name], call.Pos())
			}
		}
	}
	walkSameFunc(body, func(n ast.Node) {
		switch node := n.(type) {
		case *ast.DeferStmt:
			record(node.Call, true)
			// defer func() { …mu.Unlock()… }() also releases on return.
			if lit, ok := node.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					record(m, true)
					return true
				})
			}
		case *ast.ExprStmt:
			record(node.X, false)
		case *ast.ReturnStmt:
			returns = append(returns, node.Pos())
		}
	})
	for _, l := range locks {
		if deferred[l.key+"."+l.unlock] {
			continue
		}
		// The window the lock is provably held: from Lock to the first
		// explicit matching Unlock after it (or end of function).
		end := body.End()
		for _, u := range unlocks[l.key+"."+l.unlock] {
			if u > l.pos && u < end {
				end = u
			}
		}
		for _, r := range returns {
			if r > l.pos && r < end {
				pass.Reportf(pkg, l.pos, "%s held across a return at line %d with no defer %s.%s(): the early-return path leaks the lock", l.key, pkg.Fset.Position(r).Line, l.key, l.unlock)
				break
			}
		}
	}
}

// walkSameFunc visits body without descending into nested function
// literals (their bodies are separate lock scopes).
func walkSameFunc(body *ast.BlockStmt, fn func(n ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		fn(n)
		return true
	})
}

// isSyncLockerRecv reports whether e's type is sync.Mutex or
// sync.RWMutex (directly or through a pointer).
func isSyncLockerRecv(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	return isNamedType(t, "sync", "Mutex") || isNamedType(t, "sync", "RWMutex")
}
