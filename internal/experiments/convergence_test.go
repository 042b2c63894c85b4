package experiments

import (
	"context"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestConvergenceTable(t *testing.T) {
	c := paperCampaign(t)
	rows := Convergence(c)
	if len(rows) != 7 {
		t.Fatalf("got %d rows, want 7", len(rows))
	}
	// Hypervolume of the survivors must be non-decreasing up to noise:
	// NSGA-II with combined parent+offspring selection is elitist.
	for g := 1; g < len(rows); g++ {
		if rows[g].Hypervolume < rows[g-1].Hypervolume*0.999 {
			t.Errorf("hypervolume decreased at generation %d: %v -> %v",
				g, rows[g-1].Hypervolume, rows[g].Hypervolume)
		}
	}
	// Final generation substantially better than the random initial one.
	if rows[6].Hypervolume <= rows[0].Hypervolume {
		t.Errorf("no hypervolume improvement: %v -> %v", rows[0].Hypervolume, rows[6].Hypervolume)
	}
	// Median force should drop strongly; chemically accurate count rises.
	if rows[6].MedianForce >= rows[0].MedianForce {
		t.Errorf("median force did not improve: %v -> %v", rows[0].MedianForce, rows[6].MedianForce)
	}
	if rows[6].Accurate <= rows[0].Accurate {
		t.Errorf("accurate count did not grow: %d -> %d", rows[0].Accurate, rows[6].Accurate)
	}
	text := RenderConvergence(c)
	if !strings.Contains(text, "hypervolume") || len(strings.Split(text, "\n")) < 9 {
		t.Errorf("render too short:\n%s", text)
	}
}

func TestHyperparameterCorrelations(t *testing.T) {
	c := paperCampaign(t)
	m, err := HyperparameterCorrelations(c)
	if err != nil {
		t.Fatalf("HyperparameterCorrelations: %v", err)
	}
	if len(m.Rho) != 7 || len(m.Rho[0]) != 3 {
		t.Fatalf("matrix shape %dx%d", len(m.Rho), len(m.Rho[0]))
	}
	byName := map[string][]float64{}
	for i, n := range m.ColumnNames {
		byName[n] = m.Rho[i]
	}
	// rcut grows runtime (positive correlation) and helps both losses
	// (negative correlations) in the pooled final set.
	if byName["rcut"][2] <= 0 {
		t.Errorf("rcut-runtime correlation %v, want positive", byName["rcut"][2])
	}
	// stop_lr drives the frontier trade-off: positive with energy loss,
	// negative with force loss.
	if byName["stop_lr"][0] <= 0 || byName["stop_lr"][1] >= 0 {
		t.Errorf("stop_lr correlations = %v, want (+, -) on (energy, force)", byName["stop_lr"][:2])
	}
	text, err := RenderCorrelations(c)
	if err != nil || !strings.Contains(text, "Spearman") {
		t.Errorf("render: %v\n%s", err, text)
	}
}

func TestParallelScaling(t *testing.T) {
	opts := Options{Runs: 2, PopSize: 12, Generations: 1, Seed: 3, Parallelism: 6}
	res, err := ParallelScaling(context.Background(), opts, 2*time.Millisecond)
	if err != nil {
		t.Fatalf("ParallelScaling: %v", err)
	}
	// Parallelism 6 sweeps the powers of two up to it: 1, 2 and 4.
	var workers []int
	for _, e := range res.Entries {
		workers = append(workers, e.Workers)
	}
	if !slices.Equal(workers, []int{1, 2, 4}) {
		t.Fatalf("worker counts = %v, want [1 2 4]", workers)
	}
	if res.Evaluations != 2*12*2 {
		t.Errorf("evaluations = %d, want 2 runs × 12 × 2 rounds = 48", res.Evaluations)
	}
	if res.Entries[0].Speedup != 1 {
		t.Errorf("baseline speedup = %v", res.Entries[0].Speedup)
	}
	// 4 workers on 12-wide generations of 2ms evaluations: comfortably
	// above 1.5× even on a loaded machine.
	if res.Entries[2].Speedup < 1.5 {
		t.Errorf("4-worker speedup = %v, want > 1.5", res.Entries[2].Speedup)
	}
	if text := res.Render(); !strings.Contains(text, "Strong scaling") || !strings.Contains(text, "48 evaluations") {
		t.Errorf("render missing header or evaluation count:\n%s", text)
	}
}
