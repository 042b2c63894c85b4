package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LockOrder builds a cross-package lock-acquisition graph over
// sync.Mutex / sync.RWMutex fields and package-level locks: an edge
// A → B means some call path acquires B while holding A.  A cycle in
// that graph is a potential deadlock — two goroutines entering the
// cycle from different ends block each other forever (the classic
// scheduler↔service callback inversion).  Lock identity is the lock
// *class* (declaring struct type + field name, or package + variable
// name), the standard static approximation; cycles of length ≥ 2 are
// reported, once per cycle, at the site of the contributing
// acquisition.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "no cycles in the cross-package lock-acquisition graph (potential deadlocks)",
	Run:  runLockOrder,
}

// lockEvent is one Lock/RLock/Unlock/RUnlock on a lock class inside a
// function body, in source order.
type lockEvent struct {
	key     string // lock class key
	display string // human form, e.g. "cluster.Scheduler.mu"
	pos     token.Pos
	acquire bool
	read    bool // RLock/RUnlock
	defers  bool // deferred release
}

// lockEdge is one "holds A, acquires B" observation.
type lockEdge struct {
	from, to   string
	fromD, toD string // display names
	pkg        *Package
	pos        token.Pos
	via        string // call chain note for interprocedural edges
}

// lockSummary is a function's transitive acquisition set.
type lockSummary struct {
	// acquires maps lock key -> display + representative path.
	acquires map[string]lockAcq
}

type lockAcq struct {
	display string
	via     string // "" for direct, else "via pkg.F"
}

func runLockOrder(pass *ProgPass) {
	prog := pass.Prog

	// Pass 1: per-function direct lock events and direct summaries.
	events := map[string][]lockEvent{}
	for _, n := range prog.Nodes() {
		events[n.Key] = lockEventsOf(n)
	}

	// Pass 2: transitive summaries (what each function may acquire),
	// fixed-point over the static call graph.
	summaries := map[string]*lockSummary{}
	for _, n := range prog.Nodes() {
		s := &lockSummary{acquires: map[string]lockAcq{}}
		for _, ev := range events[n.Key] {
			if ev.acquire {
				s.acquires[ev.key] = lockAcq{display: ev.display}
			}
		}
		summaries[n.Key] = s
	}
	for changed := true; changed; {
		changed = false
		for _, n := range prog.Nodes() {
			s := summaries[n.Key]
			for _, e := range n.Out {
				if e.Go {
					continue // goroutines acquire on their own stack
				}
				callee := summaries[e.Callee.Key]
				for k, acq := range callee.acquires {
					if _, ok := s.acquires[k]; !ok {
						via := "via " + shortKey(e.Callee.Key)
						if acq.via != "" {
							via = acq.via // keep the deepest origin note short
						}
						s.acquires[k] = lockAcq{display: acq.display, via: via}
						changed = true
					}
				}
			}
		}
	}

	// Pass 3: edges.  Holding H at position p (between Lock and its
	// release), a direct acquisition or a call that transitively
	// acquires adds H → acquired edges.
	var edges []lockEdge
	for _, n := range prog.Nodes() {
		evs := events[n.Key]
		held := func(p token.Pos) []lockEvent {
			var hs []lockEvent
			for i, ev := range evs {
				if !ev.acquire || ev.pos >= p {
					continue
				}
				if releasedBefore(evs, i, p) {
					continue
				}
				hs = append(hs, ev)
			}
			return hs
		}
		// Direct acquire-under-hold edges.
		for _, ev := range evs {
			if !ev.acquire {
				continue
			}
			for _, h := range held(ev.pos) {
				if h.key == ev.key {
					continue // same class, likely distinct instances
				}
				edges = append(edges, lockEdge{
					from: h.key, to: ev.key, fromD: h.display, toD: ev.display,
					pkg: n.Pkg, pos: ev.pos,
				})
			}
		}
		// Call-site propagation.
		for _, e := range n.Out {
			if e.Go {
				continue
			}
			hs := held(e.Site.Pos())
			if len(hs) == 0 {
				continue
			}
			callee := summaries[e.Callee.Key]
			for _, k := range sortedKeys(callee.acquires) {
				acq := callee.acquires[k]
				for _, h := range hs {
					if h.key == k {
						continue
					}
					via := "via " + shortKey(e.Callee.Key)
					if acq.via != "" {
						via = via + " " + acq.via
					}
					edges = append(edges, lockEdge{
						from: h.key, to: k, fromD: h.display, toD: acq.display,
						pkg: n.Pkg, pos: e.Site.Pos(), via: via,
					})
				}
			}
		}
	}

	reportLockCycles(pass, edges)
}

// lockEventsOf extracts the source-ordered lock events of a function
// body, skipping nested function literals (separate lock scopes) and
// recording deferred releases.
func lockEventsOf(n *FuncNode) []lockEvent {
	var evs []lockEvent
	record := func(node ast.Node, deferred bool) {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return
		}
		key, display, ok := lockClassOf(n.Pkg, sel.X)
		if !ok {
			return
		}
		switch sel.Sel.Name {
		case "Lock":
			evs = append(evs, lockEvent{key: key, display: display, pos: call.Pos(), acquire: !deferred})
		case "RLock":
			evs = append(evs, lockEvent{key: key, display: display, pos: call.Pos(), acquire: !deferred, read: true})
		case "Unlock", "RUnlock":
			evs = append(evs, lockEvent{key: key, display: display, pos: call.Pos(), defers: deferred, read: sel.Sel.Name == "RUnlock"})
		}
	}
	walkSameFunc(n.Decl.Body, func(node ast.Node) {
		switch s := node.(type) {
		case *ast.DeferStmt:
			record(s.Call, true)
			if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					record(m, true)
					return true
				})
			}
		case *ast.ExprStmt:
			record(s.X, false)
		}
	})
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].pos < evs[j].pos })
	return evs
}

// releasedBefore reports whether the acquisition evs[i] has a matching
// explicit release strictly between its position and p.  A deferred
// release keeps the lock held until function exit, so it never releases
// "before p".
func releasedBefore(evs []lockEvent, i int, p token.Pos) bool {
	acq := evs[i]
	for _, ev := range evs[i+1:] {
		if ev.pos >= p {
			return false
		}
		if ev.acquire || ev.defers || ev.key != acq.key {
			continue
		}
		if ev.read == acq.read {
			return true
		}
	}
	return false
}

// lockClassOf identifies the lock class of a mutex expression: a struct
// field ("pkg.Type.field") or a package-level variable ("pkg.var").
// Local mutexes have no cross-function identity and are skipped.
func lockClassOf(pkg *Package, e ast.Expr) (key, display string, ok bool) {
	t := pkg.Info.TypeOf(e)
	if t == nil || (!isNamedType(t, "sync", "Mutex") && !isNamedType(t, "sync", "RWMutex")) {
		return "", "", false
	}
	switch v := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if sel, selOK := pkg.Info.Selections[v]; selOK && sel.Kind() == types.FieldVal {
			recv := sel.Recv()
			if p, isPtr := recv.(*types.Pointer); isPtr {
				recv = p.Elem()
			}
			if named, isNamed := recv.(*types.Named); isNamed && named.Obj().Pkg() != nil {
				path := named.Obj().Pkg().Path()
				key = fmt.Sprintf("%s.%s.%s", path, named.Obj().Name(), v.Sel.Name)
				return key, shortKey(key), true
			}
		}
		// Package-qualified var: pkg.mu.
		if id, isIdent := v.X.(*ast.Ident); isIdent {
			if pn, isPkg := pkg.Info.Uses[id].(*types.PkgName); isPkg {
				key = pn.Imported().Path() + "." + v.Sel.Name
				return key, shortKey(key), true
			}
		}
	case *ast.Ident:
		if obj, isVar := pkg.Info.ObjectOf(v).(*types.Var); isVar && !obj.IsField() && obj.Parent() != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			key = obj.Pkg().Path() + "." + obj.Name()
			return key, shortKey(key), true
		}
		// Receiver-embedded mutex (s.mu via embedded field is a selector;
		// a bare `mu` here is a local — no stable class).
	}
	return "", "", false
}

// shortKey trims the module prefix from a lock/function key for
// messages: "repro/internal/cluster.Scheduler.mu" → "cluster.Scheduler.mu".
func shortKey(key string) string {
	const prefix = "repro/internal/"
	if len(key) > len(prefix) && key[:len(prefix)] == prefix {
		return key[len(prefix):]
	}
	return key
}

// reportLockCycles finds strongly connected components of size ≥ 2 in
// the edge graph and reports one finding per cycle, deterministically.
func reportLockCycles(pass *ProgPass, edges []lockEdge) {
	adj := map[string]map[string]lockEdge{}
	for _, e := range edges {
		if adj[e.from] == nil {
			adj[e.from] = map[string]lockEdge{}
		}
		if _, ok := adj[e.from][e.to]; !ok {
			adj[e.from][e.to] = e
		}
	}
	sccs := tarjanSCC(adj)
	for _, scc := range sccs {
		if len(scc) < 2 {
			continue
		}
		sort.Strings(scc)
		inSCC := map[string]bool{}
		for _, k := range scc {
			inSCC[k] = true
		}
		// Walk one concrete cycle starting from the smallest node, always
		// taking the smallest in-SCC successor — deterministic output.
		var path []string
		var cyc []lockEdge
		cur := scc[0]
		for {
			path = append(path, cur)
			next := ""
			for _, to := range sortedKeys(adj[cur]) {
				if inSCC[to] {
					next = to
					break
				}
			}
			if next == "" {
				break
			}
			cyc = append(cyc, adj[cur][next])
			if next == scc[0] {
				break
			}
			cur = next
			if len(path) > len(scc) {
				break // safety against malformed graphs
			}
		}
		if len(cyc) == 0 {
			continue
		}
		var b []byte
		for i, e := range cyc {
			if i > 0 {
				b = append(b, ", "...)
			}
			pos := e.pkg.Fset.Position(e.pos)
			b = append(b, fmt.Sprintf("%s → %s at %s:%d", e.fromD, e.toD, pos.Filename, pos.Line)...)
			if e.via != "" {
				b = append(b, (" (" + e.via + ")")...)
			}
		}
		first := cyc[0]
		pass.Reportf(first.pkg, first.pos,
			"lock-order cycle (potential deadlock): %s; acquire these locks in one global order or decouple the callback", string(b))
	}
}

// tarjanSCC computes strongly connected components over the string
// graph, visiting nodes in sorted order for deterministic output.
func tarjanSCC(adj map[string]map[string]lockEdge) [][]string {
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var sccs [][]string
	next := 0

	nodes := map[string]bool{}
	for from, tos := range adj {
		nodes[from] = true
		for to := range tos {
			nodes[to] = true
		}
	}

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range sortedKeys(adj[v]) {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, v := range sortedKeys(nodes) {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	return sccs
}
