package experiments

import (
	"context"
	"strings"
	"testing"
)

// TestPipelineAblation runs the ablation twice at Parallelism 8: the
// generational rows repeat, and only the steady-state row, which
// completion order decides, is marked as not repeating.
func TestPipelineAblation(t *testing.T) {
	opts := Options{Runs: 2, PopSize: 40, Generations: 4, Seed: 13, Parallelism: 8}
	res, err := PipelineAblation(context.Background(), opts)
	if err != nil {
		t.Fatalf("PipelineAblation: %v", err)
	}
	if len(res.Variants) != 3 {
		t.Fatalf("got %d variants, want 3", len(res.Variants))
	}
	for _, v := range res.Variants {
		if v.Hypervolume <= 0 {
			t.Errorf("variant %q has non-positive hypervolume", v.Name)
		}
		if v.FrontSize == 0 {
			t.Errorf("variant %q has empty front", v.Name)
		}
	}
	again, err := PipelineAblation(context.Background(), opts)
	if err != nil {
		t.Fatalf("PipelineAblation again: %v", err)
	}
	for i, v := range res.Variants {
		if v.orderDependent != (i == 2) {
			t.Errorf("variant %q: order-dependent %v", v.Name, v.orderDependent)
		}
		if !v.orderDependent && v != again.Variants[i] {
			t.Errorf("variant %q does not repeat:\n%+v\n%+v", v.Name, v, again.Variants[i])
		}
	}
	// Every variant optimizes the same landscape with the same budget;
	// all should land within a reasonable band of the paper pipeline.
	paper := res.Variants[0].Hypervolume
	for _, v := range res.Variants[1:] {
		if v.Hypervolume < paper*0.8 {
			t.Errorf("variant %q hypervolume %v far below paper %v", v.Name, v.Hypervolume, paper)
		}
	}
	text := res.Render()
	for _, want := range []string{"paper", "canonical", "steady-state (async, anneal 0.85) †", "hypervolume", "† depends on evaluation completion order"} {
		if !strings.Contains(text, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestCompareBaselines(t *testing.T) {
	res, err := CompareBaselines(context.Background(), Options{
		Runs: 1, PopSize: 60, Generations: 5, Seed: 17, Parallelism: 8,
	})
	if err != nil {
		t.Fatalf("CompareBaselines: %v", err)
	}
	if len(res.Entries) != 3 {
		t.Fatalf("got %d entries", len(res.Entries))
	}
	ea2 := res.Entries[0]
	random := res.Entries[1]
	grid := res.Entries[2]
	// The EA must dominate on chemically accurate discoveries: it spends
	// its budget inside the good region while random/grid sample blindly.
	if ea2.Accurate <= random.Accurate {
		t.Errorf("EA accurate %d not above random search %d", ea2.Accurate, random.Accurate)
	}
	if ea2.Accurate <= grid.Accurate {
		t.Errorf("EA accurate %d not above grid search %d", ea2.Accurate, grid.Accurate)
	}
	// And find a better best-force solution than the coarse grid.
	if ea2.BestForce >= grid.BestForce {
		t.Errorf("EA best force %v not below grid %v (grid too coarse to hit the optimum)",
			ea2.BestForce, grid.BestForce)
	}
	text := res.Render()
	if !strings.Contains(text, "NSGA-II") || !strings.Contains(text, "grid search") {
		t.Errorf("render incomplete:\n%s", text)
	}
}
