package experiments

import (
	"context"
	"testing"

	"repro/internal/ea"
)

var (
	// sphereEval scores the first gene's squared distance to 0 and to 1.
	sphereEval = ea.EvaluatorFunc(func(_ context.Context, g ea.Genome) (ea.Fitness, error) {
		return ea.Fitness{g[0] * g[0], (g[0] - 1) * (g[0] - 1)}, nil
	})
	unitSquare = ea.Bounds{{Lo: 0, Hi: 1}, {Lo: 0, Hi: 1}}
)

func TestRandomSearchBudget(t *testing.T) {
	pop, err := randomSearch(context.Background(), sphereEval, unitSquare, 50, 4, 1)
	if err != nil {
		t.Fatalf("randomSearch: %v", err)
	}
	if len(pop) != 50 {
		t.Errorf("evaluated %d, want 50", len(pop))
	}
	for _, ind := range pop {
		if !ind.Evaluated || ind.Fitness.IsFailure() {
			t.Errorf("%v not evaluated", ind.Genome)
		}
	}
	if _, err := randomSearch(context.Background(), sphereEval, unitSquare, 0, 1, 1); err == nil {
		t.Error("zero budget accepted")
	}
}

func TestGridSearchFullFactorial(t *testing.T) {
	pop, err := gridSearch(context.Background(), sphereEval, unitSquare, 4, 4)
	if err != nil {
		t.Fatalf("gridSearch: %v", err)
	}
	if len(pop) != 16 {
		t.Fatalf("evaluated %d, want 16", len(pop))
	}
	// Every genome sits on a distinct cell centre: 0.125, 0.375, 0.625 or
	// 0.875 in each gene.
	seen := map[[2]float64]bool{}
	for _, ind := range pop {
		key := [2]float64{ind.Genome[0], ind.Genome[1]}
		if seen[key] {
			t.Errorf("duplicate grid point %v", key)
		}
		seen[key] = true
		for _, x := range key {
			if c := x*4 - 0.5; c != float64(int(c)) {
				t.Errorf("grid point %v off the cell centres", key)
			}
		}
	}
	if pop[1].Genome[0] != 0.375 || pop[1].Genome[1] != 0.125 {
		t.Errorf("second grid point %v, want [0.375 0.125]: gene 0 varies fastest", pop[1].Genome)
	}
}
