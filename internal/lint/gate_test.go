package lint

import (
	"path/filepath"
	"testing"
)

// TestBaselineMatchesFreshRun runs the whole suite over the module and
// asserts the committed baseline (scripts/lint_baseline.txt) matches a
// fresh run exactly: no new findings (the tree stays clean) and no
// stale entries (the ratchet cannot silently grow — a fixed finding
// must be removed from the baseline in the same change).
//
// This test is what wires the lint gate into plain `go test ./...`:
// tier-1 fails on lint drift even before CI's dedicated lint job runs.
func TestBaselineMatchesFreshRun(t *testing.T) {
	if testing.Short() {
		// Loading every package in the module costs a few seconds of
		// go list -export; the dedicated lint job covers short CI runs.
		t.Skip("short mode: skipping full-module lint load")
	}
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded zero packages")
	}
	for _, pkg := range pkgs {
		for _, e := range pkg.TypeErrors {
			t.Errorf("type error in %s: %v", pkg.ImportPath, e)
		}
	}
	// Program.Run executes the full suite — package-local and
	// interprocedural — so goroutineleak/lockorder/detflow findings
	// gate here too, not just in the dedicated lint job.
	diags := NewProgram(pkgs).Run(All())
	base, err := ReadBaseline(filepath.Join(root, "scripts", "lint_baseline.txt"))
	if err != nil {
		t.Fatal(err)
	}
	fresh, stale := Gate(diags, base)
	for _, d := range fresh {
		t.Errorf("new finding not in baseline: %s", d.String())
	}
	for _, s := range stale {
		t.Errorf("stale baseline entry (no longer reproduces): %s", s)
	}
	if t.Failed() {
		t.Log("fix findings or //lint:ignore with a reason; regenerate with: go run ./cmd/lint -update-baseline ./...")
	}
}

// TestAllStableOrder pins the analyzer roster and its order: baselines,
// -list output and per-analyzer timings all key off this sequence, so a
// reorder or a silently dropped analyzer must fail loudly.
func TestAllStableOrder(t *testing.T) {
	want := []string{
		"determinism",
		"floateq",
		"ctxhygiene",
		"lockdiscipline",
		"errdiscard",
		"goroutineleak",
		"lockorder",
		"detflow",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("All() returned %d analyzers, want %d", len(all), len(want))
	}
	for i, a := range all {
		if a.Name != want[i] {
			t.Errorf("All()[%d] = %q, want %q", i, a.Name, want[i])
		}
	}
}
