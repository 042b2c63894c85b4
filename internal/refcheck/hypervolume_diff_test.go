package refcheck

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ea"
	"repro/internal/nsga2"
)

// TestHypervolumeMatchesSweepOracle cross-checks the production
// staircase hypervolume against the independent breakpoint-integration
// oracle over randomized bi-objective instances: duplicated points,
// points outside the reference box, points exactly on the reference
// point, MAXINT failures and non-finite fitnesses.  The two algorithms
// sum different rectangle decompositions, so agreement is checked to a
// tight relative tolerance rather than bit-for-bit.
func TestHypervolumeMatchesSweepOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	const instances = 250
	for trial := 0; trial < instances; trial++ {
		n := rng.Intn(60)
		fits := randFitnesses(rng, n, 2, 0.1, 0.1)
		// Push some points onto and beyond the reference boundary.
		ref := ea.Fitness{0.5 + rng.Float64()*4, 0.5 + rng.Float64()*4}
		for i := range fits {
			if broken(fits[i]) || fits[i].IsFailure() {
				continue
			}
			switch rng.Intn(8) {
			case 0:
				fits[i][0] = ref[0]
			case 1:
				fits[i][1] = ref[1]
			case 2:
				fits[i] = ea.Fitness{ref[0], ref[1]}
			}
		}
		want := Hypervolume2D(fits, ref)
		got := nsga2.Hypervolume2D(popOf(fits), ref)
		tol := 1e-12 * (1 + math.Abs(want))
		if math.Abs(got-want) > tol {
			t.Fatalf("trial %d (n=%d ref=%v): Hypervolume2D = %.17g, oracle %.17g", trial, n, ref, got, want)
		}
		if got < 0 {
			t.Fatalf("trial %d: negative hypervolume %v", trial, got)
		}
	}
}
