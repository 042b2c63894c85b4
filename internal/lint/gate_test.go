package lint

import "testing"

// TestModuleLintClean runs the whole suite over the module and
// requires zero findings and no type errors: a finding is fixed or
// kept in place with a reasoned //lint:ignore, never tolerated.
//
// This test is what wires the lint gate into plain `go test ./...`:
// tier-1 fails on a finding even before CI's dedicated lint job runs.
func TestModuleLintClean(t *testing.T) {
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
	for _, d := range NewProgram(pkgs).Run(All()) {
		t.Errorf("finding: %s", d.String())
	}
	if t.Failed() {
		t.Log("fix each finding or //lint:ignore it with a reason")
	}
}

// TestAllStableOrder pins the analyzer roster and its order: -list
// output and per-analyzer timings all key off this sequence, so a
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
