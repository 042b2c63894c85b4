package refcheck

import (
	"math/rand"
	"testing"

	"repro/internal/ea"
	"repro/internal/nsga2"
)

// TestSortsMatchBruteOracle cross-checks both non-dominated sorts against the O(N³·M) peeling oracle over hundreds of
// randomized instances, including duplicate objective vectors, MAXINT
// failures, NaN/Inf objectives and empty populations.
func TestSortsMatchBruteOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	sorts := map[string]func(ea.Population) []ea.Population{
		"FastNonDominatedSort": nsga2.FastNonDominatedSort,
		"RankOrdinalSort":      nsga2.RankOrdinalSort,
	}
	const instances = 250
	for trial := 0; trial < instances; trial++ {
		n := rng.Intn(81) // includes the empty population
		m := 2 + rng.Intn(3)
		fits := randFitnesses(rng, n, m, 0.1, 0.1)
		want := ParetoRanks(fits)

		for name, fn := range sorts {
			pop := popOf(fits)
			fronts := fn(pop)
			total := 0
			for fi, front := range fronts {
				total += len(front)
				for _, ind := range front {
					if ind.Rank != fi {
						t.Fatalf("trial %d: %s stored rank %d for a member of front %d", trial, name, ind.Rank, fi)
					}
				}
			}
			if total != n {
				t.Fatalf("trial %d: %s fronts cover %d of %d members", trial, name, total, n)
			}
			for i, ind := range pop {
				if ind.Rank != want[i] {
					t.Fatalf("trial %d: %s rank[%d] = %d, oracle %d (fitness %v, n=%d m=%d)",
						trial, name, i, ind.Rank, want[i], fits[i], n, m)
				}
			}
		}
	}
}

// TestNonDominatedMatchesOracleFrontZero checks the frontier extraction
// the paper's Fig. 2 uses against the oracle's rank-0 layer.
func TestNonDominatedMatchesOracleFrontZero(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		fits := randFitnesses(rng, n, 2, 0.15, 0.15)
		ranks := ParetoRanks(fits)
		pop := popOf(fits)
		nd := nsga2.NonDominated(pop)
		inND := map[*ea.Individual]bool{}
		for _, ind := range nd {
			inND[ind] = true
		}
		for i, ind := range pop {
			if inND[ind] != (ranks[i] == 0) {
				t.Fatalf("trial %d: member %d (fitness %v, oracle rank %d) NonDominated=%v",
					trial, i, fits[i], ranks[i], inND[ind])
			}
		}
	}
}
