package nsga2

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ea"
)

func TestHypervolume2DSinglePoint(t *testing.T) {
	pop := popFrom(ea.Fitness{1, 1})
	// Box from (1,1) to (3,3): area 4.
	if got := Hypervolume2D(pop, ea.Fitness{3, 3}); math.Abs(got-4) > 1e-12 {
		t.Errorf("HV = %v, want 4", got)
	}
}

func TestHypervolume2DStaircase(t *testing.T) {
	pop := popFrom(
		ea.Fitness{1, 3},
		ea.Fitness{2, 2},
		ea.Fitness{3, 1},
	)
	// ref (4,4): contributions (2-1)(4-3)+(3-2)(4-2)+(4-3)(4-1) = 1+2+3 = 6.
	if got := Hypervolume2D(pop, ea.Fitness{4, 4}); math.Abs(got-6) > 1e-12 {
		t.Errorf("HV = %v, want 6", got)
	}
}

func TestHypervolume2DIgnoresDominatedAndFailures(t *testing.T) {
	pop := popFrom(
		ea.Fitness{1, 1},
		ea.Fitness{2, 2}, // dominated: no extra volume
		ea.FailureFitness(2),
		ea.Fitness{5, 5}, // outside reference
	)
	if got := Hypervolume2D(pop, ea.Fitness{3, 3}); math.Abs(got-4) > 1e-12 {
		t.Errorf("HV = %v, want 4", got)
	}
}

func TestHypervolume2DEmpty(t *testing.T) {
	if got := Hypervolume2D(nil, ea.Fitness{1, 1}); got != 0 {
		t.Errorf("HV(empty) = %v", got)
	}
	pop := popFrom(ea.Fitness{2, 2})
	if got := Hypervolume2D(pop, ea.Fitness{1, 1}); got != 0 {
		t.Errorf("HV with all points outside ref = %v", got)
	}
}

func TestHypervolume2DMonotoneUnderImprovement(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ref := ea.Fitness{1, 1}
	pop := ea.Population{}
	prev := 0.0
	for i := 0; i < 50; i++ {
		pop = append(pop, &ea.Individual{Fitness: ea.Fitness{rng.Float64(), rng.Float64()}})
		hv := Hypervolume2D(pop, ref)
		if hv < prev-1e-12 {
			t.Fatalf("hypervolume decreased when adding a point: %v -> %v", prev, hv)
		}
		prev = hv
	}
}

func TestHypervolume2DDuplicateF0(t *testing.T) {
	pop := popFrom(ea.Fitness{1, 2}, ea.Fitness{1, 1})
	// Only (1,1) matters: area (3-1)*(3-1) = 4.
	if got := Hypervolume2D(pop, ea.Fitness{3, 3}); math.Abs(got-4) > 1e-12 {
		t.Errorf("HV = %v, want 4", got)
	}
}
