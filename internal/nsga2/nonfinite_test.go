package nsga2

import (
	"math"
	"testing"

	"repro/internal/ea"
)

// The NaN/Inf fitness semantics: any non-finite objective marks a broken
// evaluation, ranked like a MAXINT failure — dominated by every finite
// fitness, dominating nothing, mutually non-dominating with other broken
// fitnesses.  These tests pin that contract across dominance, all three
// sort implementations, crowding, tournament and hypervolume.

func nan2() ea.Fitness { return ea.Fitness{math.NaN(), 0.5} }
func inf2() ea.Fitness { return ea.Fitness{math.Inf(1), 0.5} }

func TestDominatesNonFinite(t *testing.T) {
	finite := ea.Fitness{1, 2}
	failure := ea.FailureFitness(2)
	cases := []struct {
		name string
		a, b ea.Fitness
		want bool
	}{
		{"finite beats NaN", finite, nan2(), true},
		{"finite beats +Inf", finite, inf2(), true},
		{"finite beats -Inf", finite, ea.Fitness{math.Inf(-1), 0}, true},
		{"NaN loses to finite", nan2(), finite, false},
		{"NaN vs NaN", nan2(), nan2(), false},
		{"NaN vs Inf", nan2(), inf2(), false},
		{"MAXINT failure beats NaN", failure, nan2(), true},
		{"NaN loses to MAXINT failure", nan2(), failure, false},
		{"-Inf never dominates", ea.Fitness{math.Inf(-1), math.Inf(-1)}, finite, false},
	}
	for _, c := range cases {
		if got := Dominates(c.a, c.b); got != c.want {
			t.Errorf("%s: Dominates(%v, %v) = %v, want %v", c.name, c.a, c.b, got, c.want)
		}
	}
}

func TestDominatesNonFiniteIrreflexiveAsymmetric(t *testing.T) {
	vals := []ea.Fitness{
		nan2(), inf2(), {math.Inf(-1), 1}, {1, 1}, ea.FailureFitness(2), {math.NaN(), math.NaN()},
	}
	for _, a := range vals {
		if Dominates(a, a) {
			t.Errorf("Dominates(%v, %v) is reflexive", a, a)
		}
		for _, b := range vals {
			if Dominates(a, b) && Dominates(b, a) {
				t.Errorf("Dominates symmetric on %v, %v", a, b)
			}
		}
	}
}

func TestSortsPlaceNonFiniteInTrailingFront(t *testing.T) {
	mk := func() ea.Population {
		return popFrom(
			ea.Fitness{1, 1},
			nan2(),
			ea.Fitness{2, 2},
			inf2(),
			ea.Fitness{0, 3},
			ea.Fitness{math.Inf(-1), math.NaN()},
		)
	}
	for name, fn := range map[string]sortFunc{
		"fast": FastNonDominatedSort, "rank": RankOrdinalSort,
	} {
		pop := mk()
		fronts := fn(pop)
		if len(fronts) != 3 {
			t.Fatalf("%s: got %d fronts, want 3 (2 finite + 1 broken)", name, len(fronts))
		}
		last := fronts[len(fronts)-1]
		if len(last) != 3 {
			t.Fatalf("%s: trailing front has %d members, want the 3 broken ones", name, len(last))
		}
		for _, ind := range last {
			if !nonFinite(ind.Fitness) {
				t.Errorf("%s: finite fitness %v in trailing front", name, ind.Fitness)
			}
			if ind.Rank != len(fronts)-1 {
				t.Errorf("%s: broken member rank %d, want %d", name, ind.Rank, len(fronts)-1)
			}
		}
	}
}

func TestSortsAllNonFinite(t *testing.T) {
	for name, fn := range map[string]sortFunc{
		"fast": FastNonDominatedSort, "rank": RankOrdinalSort,
	} {
		pop := popFrom(nan2(), inf2(), nan2())
		fronts := fn(pop)
		if len(fronts) != 1 || len(fronts[0]) != 3 {
			t.Errorf("%s: all-broken population should form one front, got %d", name, len(fronts))
		}
		for _, ind := range pop {
			if ind.Rank != 0 {
				t.Errorf("%s: rank %d, want 0", name, ind.Rank)
			}
		}
	}
}

func TestCrowdingIgnoresNonFinite(t *testing.T) {
	front := popFrom(
		ea.Fitness{0, 4},
		nan2(),
		ea.Fitness{1, 3},
		ea.Fitness{2, 2},
		inf2(),
		ea.Fitness{3, 1},
		ea.Fitness{4, 0},
	)
	CrowdingDistance(front)
	for _, ind := range front {
		if nonFinite(ind.Fitness) {
			if ind.Distance != 0 {
				t.Errorf("broken member distance %v, want 0", ind.Distance)
			}
			continue
		}
		if math.IsNaN(ind.Distance) {
			t.Errorf("finite member %v got NaN distance", ind.Fitness)
		}
	}
	// The finite members must get exactly the distances they would get
	// with the broken members absent.
	clean := popFrom(
		ea.Fitness{0, 4}, ea.Fitness{1, 3}, ea.Fitness{2, 2}, ea.Fitness{3, 1}, ea.Fitness{4, 0},
	)
	CrowdingDistance(clean)
	finite := make(ea.Population, 0, 5)
	for _, ind := range front {
		if !nonFinite(ind.Fitness) {
			finite = append(finite, ind)
		}
	}
	for i := range clean {
		if got, want := finite[i].Distance, clean[i].Distance; got != want && !(math.IsInf(got, 1) && math.IsInf(want, 1)) {
			t.Errorf("member %d distance %v, want %v", i, got, want)
		}
	}
}

func TestCrowdingAllNonFinite(t *testing.T) {
	front := popFrom(nan2(), inf2(), nan2())
	CrowdingDistance(front)
	for _, ind := range front {
		if ind.Distance != 0 {
			t.Errorf("distance %v, want 0", ind.Distance)
		}
	}
}

func TestTournamentNeverPrefersNonFinite(t *testing.T) {
	pop := popFrom(ea.Fitness{1, 1}, nan2())
	fronts := RankOrdinalSort(pop)
	CrowdingDistanceAll(fronts)
	good, bad := pop[0], pop[1]
	if CrowdedBetter(good, bad) != good || CrowdedBetter(bad, good) != good {
		t.Error("crowded comparison preferred a non-finite fitness")
	}
}

func TestSelectDropsNonFiniteFirst(t *testing.T) {
	pop := popFrom(
		ea.Fitness{1, 1}, nan2(), ea.Fitness{2, 2}, inf2(), ea.Fitness{3, 3},
	)
	sel := Select(pop, 3)
	for _, ind := range sel {
		if nonFinite(ind.Fitness) {
			t.Errorf("selection kept broken fitness %v over finite candidates", ind.Fitness)
		}
	}
}

func TestHypervolumeSkipsNonFinite(t *testing.T) {
	ref := ea.Fitness{3, 3}
	base := popFrom(ea.Fitness{1, 1})
	want := Hypervolume2D(base, ref)
	poisoned := popFrom(
		ea.Fitness{1, 1}, nan2(), ea.Fitness{math.Inf(-1), 0}, ea.Fitness{0, math.Inf(-1)},
	)
	if got := Hypervolume2D(poisoned, ref); got != want {
		t.Errorf("Hypervolume2D with non-finite members = %v, want %v", got, want)
	}
}

func TestNonDominatedWithNonFinite(t *testing.T) {
	pop := popFrom(ea.Fitness{1, 1}, nan2(), inf2())
	nd := NonDominated(pop)
	if len(nd) != 1 || nonFinite(nd[0].Fitness) {
		t.Fatalf("NonDominated kept broken members: %v", nd)
	}
	allBad := popFrom(nan2(), inf2())
	if got := NonDominated(allBad); len(got) != 2 {
		t.Errorf("all-broken population: NonDominated returned %d members, want 2", len(got))
	}
}
