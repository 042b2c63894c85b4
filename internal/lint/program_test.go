package lint

import (
	"path/filepath"
	"sort"
	"testing"
)

// loadEngineProgram loads the two-package engine fixture and builds its
// call graph.
func loadEngineProgram(t *testing.T) *Program {
	t.Helper()
	pkgs, err := LoadDirProgram(filepath.Join("testdata", "prog", "engine"))
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, e := range pkg.TypeErrors {
			t.Fatalf("type error in %s: %v", pkg.ImportPath, e)
		}
	}
	return NewProgram(pkgs)
}

// edgesTo returns n's outgoing edges landing on callee key.
func edgesTo(n *FuncNode, key string) []CallEdge {
	var out []CallEdge
	for _, e := range n.Out {
		if e.Callee.Key == key {
			out = append(out, e)
		}
	}
	return out
}

func mustNode(t *testing.T, prog *Program, key string) *FuncNode {
	t.Helper()
	n := prog.Funcs[key]
	if n == nil {
		var keys []string
		for k := range prog.Funcs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		t.Fatalf("no FuncNode for %q; have %v", key, keys)
	}
	return n
}

// TestEngineFuncKeys pins the cross-package key scheme: pkgpath.Name
// for functions, pkgpath.Recv.Name for methods.
func TestEngineFuncKeys(t *testing.T) {
	prog := loadEngineProgram(t)
	for _, key := range []string{
		"alpha.Helper",
		"alpha.Direct",
		"alpha.Recurse",
		"alpha.Dispatch",
		"alpha.Impl.Run",
		"alpha.Hot",
		"beta.Other.Run",
		"beta.Cross",
	} {
		mustNode(t, prog, key)
	}
}

func TestEngineNodesDeterministicOrder(t *testing.T) {
	prog := loadEngineProgram(t)
	nodes := prog.Nodes()
	for i := 1; i < len(nodes); i++ {
		if nodes[i-1].Key >= nodes[i].Key {
			t.Fatalf("Nodes() not strictly key-sorted: %q before %q", nodes[i-1].Key, nodes[i].Key)
		}
	}
}

func TestEngineStaticEdge(t *testing.T) {
	prog := loadEngineProgram(t)
	es := edgesTo(mustNode(t, prog, "alpha.Direct"), "alpha.Helper")
	if len(es) != 1 || es[0].Go {
		t.Fatalf("Direct→Helper edges = %+v, want one", es)
	}
}

func TestEngineRecursionEdge(t *testing.T) {
	prog := loadEngineProgram(t)
	es := edgesTo(mustNode(t, prog, "alpha.Recurse"), "alpha.Recurse")
	if len(es) != 1 {
		t.Fatalf("Recurse self-edges = %+v, want one", es)
	}
}

func TestEngineCrossPackageEdge(t *testing.T) {
	prog := loadEngineProgram(t)
	es := edgesTo(mustNode(t, prog, "beta.Cross"), "alpha.Helper")
	if len(es) != 1 {
		t.Fatalf("Cross→Helper edges = %+v, want one", es)
	}
}

func TestEngineSpawnFlags(t *testing.T) {
	prog := loadEngineProgram(t)
	n := mustNode(t, prog, "alpha.Spawn")
	goEdges := edgesTo(n, "alpha.Direct")
	if len(goEdges) != 1 || !goEdges[0].Go {
		t.Errorf("Spawn→Direct = %+v, want one edge with Go set", goEdges)
	}
	if defEdges := edgesTo(n, "alpha.Helper"); len(defEdges) != 1 || defEdges[0].Go {
		t.Errorf("Spawn→Helper = %+v, want one deferred edge without Go", defEdges)
	}
}

// TestEngineInterfaceCallHasNoEdge: a call through an interface has no
// static callee, so Dispatch has no outgoing edge.
func TestEngineInterfaceCallHasNoEdge(t *testing.T) {
	prog := loadEngineProgram(t)
	if out := mustNode(t, prog, "alpha.Dispatch").Out; len(out) != 0 {
		t.Errorf("Dispatch edges = %+v, want none", out)
	}
}

// TestEngineSuppressedAt: the program indexes every package's ignore
// directives so interprocedural analyzers can keep suppressed sources
// out of their summaries.
func TestEngineSuppressedAt(t *testing.T) {
	prog := loadEngineProgram(t)
	dirs := prog.ignores["alpha/alpha.go"]
	if len(dirs) != 1 {
		t.Fatalf("ignores[alpha/alpha.go] = %+v, want one directive", dirs)
	}
	line := dirs[0].line
	if !prog.suppressedAt("alpha/alpha.go", line, "determinism") {
		t.Error("same-line suppression not honored")
	}
	if !prog.suppressedAt("alpha/alpha.go", line+1, "determinism") {
		t.Error("line-above suppression not honored")
	}
	if prog.suppressedAt("alpha/alpha.go", line, "floateq") {
		t.Error("directive suppresses a rule it does not name")
	}
	if prog.suppressedAt("beta/beta.go", line, "determinism") {
		t.Error("directive leaks into another file")
	}
}
