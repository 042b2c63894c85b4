package nsga2

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ea"
)

func popFrom(fits ...ea.Fitness) ea.Population {
	pop := make(ea.Population, len(fits))
	for i, f := range fits {
		pop[i] = &ea.Individual{Fitness: f, Evaluated: true}
	}
	return pop
}

func TestDominates(t *testing.T) {
	cases := []struct {
		a, b ea.Fitness
		want bool
	}{
		{ea.Fitness{1, 1}, ea.Fitness{2, 2}, true},
		{ea.Fitness{1, 2}, ea.Fitness{2, 1}, false},
		{ea.Fitness{1, 1}, ea.Fitness{1, 1}, false}, // equal: no strict improvement
		{ea.Fitness{1, 1}, ea.Fitness{1, 2}, true},
		{ea.Fitness{2, 2}, ea.Fitness{1, 1}, false},
		{ea.Fitness{0, 5, 3}, ea.Fitness{0, 5, 4}, true},
	}
	for _, c := range cases {
		if got := Dominates(c.a, c.b); got != c.want {
			t.Errorf("Dominates(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestDominatesIsStrictPartialOrder(t *testing.T) {
	// Irreflexive and asymmetric, via testing/quick.
	irreflexive := func(a, b float64) bool {
		f := ea.Fitness{a, b}
		return !Dominates(f, f)
	}
	if err := quick.Check(irreflexive, nil); err != nil {
		t.Errorf("irreflexivity: %v", err)
	}
	asymmetric := func(a1, a2, b1, b2 float64) bool {
		fa, fb := ea.Fitness{a1, a2}, ea.Fitness{b1, b2}
		return !(Dominates(fa, fb) && Dominates(fb, fa))
	}
	if err := quick.Check(asymmetric, nil); err != nil {
		t.Errorf("asymmetry: %v", err)
	}
}

func TestDominatesTransitive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		a := ea.Fitness{rng.Float64(), rng.Float64()}
		b := ea.Fitness{rng.Float64(), rng.Float64()}
		c := ea.Fitness{rng.Float64(), rng.Float64()}
		if Dominates(a, b) && Dominates(b, c) && !Dominates(a, c) {
			t.Fatalf("transitivity violated: %v ≺ %v ≺ %v but not %v ≺ %v", a, b, b, c, a)
		}
	}
}

func TestFastNonDominatedSortSimple(t *testing.T) {
	pop := popFrom(
		ea.Fitness{1, 1}, // front 0
		ea.Fitness{2, 2}, // front 1
		ea.Fitness{0, 3}, // front 0
		ea.Fitness{3, 0}, // front 0
		ea.Fitness{3, 3}, // front 2 (dominated by {1,1} and {2,2})
	)
	fronts := FastNonDominatedSort(pop)
	if len(fronts) != 3 {
		t.Fatalf("got %d fronts, want 3", len(fronts))
	}
	if len(fronts[0]) != 3 || len(fronts[1]) != 1 || len(fronts[2]) != 1 {
		t.Errorf("front sizes = %d,%d,%d, want 3,1,1", len(fronts[0]), len(fronts[1]), len(fronts[2]))
	}
	wantRanks := []int{0, 1, 0, 0, 2}
	for i, w := range wantRanks {
		if pop[i].Rank != w {
			t.Errorf("pop[%d].Rank = %d, want %d", i, pop[i].Rank, w)
		}
	}
}

func TestFrontsAreMutuallyNonDominating(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pop := make(ea.Population, 200)
	for i := range pop {
		pop[i] = &ea.Individual{Fitness: ea.Fitness{rng.Float64(), rng.Float64(), rng.Float64()}}
	}
	for name, sortFn := range map[string]sortFunc{
		"fast": FastNonDominatedSort, "rank": RankOrdinalSort,
	} {
		fronts := sortFn(pop)
		total := 0
		for fi, front := range fronts {
			total += len(front)
			for i := range front {
				for j := range front {
					if i != j && Dominates(front[i].Fitness, front[j].Fitness) {
						t.Errorf("%s: front %d contains dominated pair", name, fi)
					}
				}
			}
		}
		if total != len(pop) {
			t.Errorf("%s: fronts cover %d of %d individuals", name, total, len(pop))
		}
		// Every member of front k+1 must be dominated by someone in front k.
		for fi := 1; fi < len(fronts); fi++ {
			for _, ind := range fronts[fi] {
				found := false
				for _, d := range fronts[fi-1] {
					if Dominates(d.Fitness, ind.Fitness) {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("%s: member of front %d not dominated by front %d", name, fi, fi-1)
				}
			}
		}
	}
}

// sortFunc is the shape of the non-dominated sorts the tests compare.
type sortFunc func(ea.Population) []ea.Population

// ranksBy runs a sort function on a copy and returns fitness->rank pairs
// keyed by individual index.
func ranksBy(pop ea.Population, fn sortFunc) []int {
	fn(pop)
	out := make([]int, len(pop))
	for i, ind := range pop {
		out[i] = ind.Rank
	}
	return out
}

func TestSortImplementationsAgreeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(120)
		m := 2 + rng.Intn(3)
		pop := make(ea.Population, n)
		for i := range pop {
			f := make(ea.Fitness, m)
			for k := range f {
				// Coarse grid to force plenty of ties and duplicates.
				f[k] = float64(rng.Intn(6))
			}
			pop[i] = &ea.Individual{Fitness: f}
		}
		want := ranksBy(pop, FastNonDominatedSort)
		got := ranksBy(pop, RankOrdinalSort)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: RankOrdinalSort rank[%d] = %d, FastNonDominatedSort = %d (fitness %v)",
					trial, i, got[i], want[i], pop[i].Fitness)
			}
		}
	}
}

func TestSortHandlesDuplicates(t *testing.T) {
	pop := popFrom(
		ea.Fitness{1, 1}, ea.Fitness{1, 1}, ea.Fitness{1, 1},
		ea.Fitness{2, 2}, ea.Fitness{2, 2},
	)
	for name, fn := range map[string]sortFunc{
		"fast": FastNonDominatedSort, "rank": RankOrdinalSort,
	} {
		fronts := fn(pop)
		if len(fronts) != 2 || len(fronts[0]) != 3 || len(fronts[1]) != 2 {
			t.Errorf("%s: fronts sizes wrong for duplicates: %d fronts", name, len(fronts))
		}
	}
}

func TestSortHandlesFailureFitness(t *testing.T) {
	// MAXINT failures must all land in the worst front, never panic.
	pop := popFrom(
		ea.Fitness{0.01, 0.02},
		ea.FailureFitness(2),
		ea.Fitness{0.02, 0.01},
		ea.FailureFitness(2),
	)
	fronts := RankOrdinalSort(pop)
	if len(fronts) != 2 {
		t.Fatalf("got %d fronts, want 2", len(fronts))
	}
	for _, ind := range fronts[1] {
		if !ind.Fitness.IsFailure() {
			t.Error("non-failure individual in worst front")
		}
	}
}

func TestSortEmptyAndSingle(t *testing.T) {
	for name, fn := range map[string]sortFunc{
		"fast": FastNonDominatedSort, "rank": RankOrdinalSort,
	} {
		if fronts := fn(nil); fronts != nil {
			t.Errorf("%s(nil) = %v, want nil", name, fronts)
		}
		single := popFrom(ea.Fitness{1, 2})
		fronts := fn(single)
		if len(fronts) != 1 || len(fronts[0]) != 1 || single[0].Rank != 0 {
			t.Errorf("%s(single) wrong", name)
		}
	}
}

func TestQuickSortEquivalence(t *testing.T) {
	f := func(vals []uint8) bool {
		// Build a population of pairs from the byte stream.
		n := len(vals) / 2
		if n == 0 {
			return true
		}
		pop := make(ea.Population, n)
		for i := 0; i < n; i++ {
			pop[i] = &ea.Individual{Fitness: ea.Fitness{float64(vals[2*i] % 8), float64(vals[2*i+1] % 8)}}
		}
		want := ranksBy(pop, FastNonDominatedSort)
		got := ranksBy(pop, RankOrdinalSort)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCrowdingBoundariesInfinite(t *testing.T) {
	front := popFrom(
		ea.Fitness{0, 4}, ea.Fitness{1, 3}, ea.Fitness{2, 2}, ea.Fitness{3, 1}, ea.Fitness{4, 0},
	)
	CrowdingDistance(front)
	if !math.IsInf(front[0].Distance, 1) || !math.IsInf(front[4].Distance, 1) {
		t.Error("boundary individuals do not have +Inf distance")
	}
	for _, ind := range front[1:4] {
		if math.IsInf(ind.Distance, 1) || ind.Distance <= 0 {
			t.Errorf("interior distance = %v, want finite positive", ind.Distance)
		}
	}
	// Uniformly spaced points have equal interior distances.
	if math.Abs(front[1].Distance-front[2].Distance) > 1e-12 {
		t.Errorf("uniform spacing gives unequal distances: %v vs %v", front[1].Distance, front[2].Distance)
	}
}

func TestCrowdingPrefersSpreadPoints(t *testing.T) {
	// Middle point crowded between close neighbours must score lower than
	// a point with distant neighbours.
	front := popFrom(
		ea.Fitness{0, 10},
		ea.Fitness{1, 8.9},
		ea.Fitness{1.1, 8.8}, // crowded
		ea.Fitness{1.2, 8.7},
		ea.Fitness{5, 5},
		ea.Fitness{10, 0},
	)
	CrowdingDistance(front)
	if front[2].Distance >= front[4].Distance {
		t.Errorf("crowded point distance %v >= spread point distance %v", front[2].Distance, front[4].Distance)
	}
}

func TestCrowdingSmallFronts(t *testing.T) {
	one := popFrom(ea.Fitness{1, 2})
	CrowdingDistance(one)
	if !math.IsInf(one[0].Distance, 1) {
		t.Error("singleton front distance not +Inf")
	}
	two := popFrom(ea.Fitness{1, 2}, ea.Fitness{2, 1})
	CrowdingDistance(two)
	for _, ind := range two {
		if !math.IsInf(ind.Distance, 1) {
			t.Error("pair front distance not +Inf")
		}
	}
	CrowdingDistance(nil) // must not panic
}

func TestCrowdingDegenerateObjective(t *testing.T) {
	// All f0 equal: span zero on objective 0 must not produce NaN.
	front := popFrom(ea.Fitness{1, 0}, ea.Fitness{1, 1}, ea.Fitness{1, 2})
	CrowdingDistance(front)
	for _, ind := range front {
		if math.IsNaN(ind.Distance) {
			t.Error("NaN crowding distance on degenerate objective")
		}
	}
}

func TestTruncationSelectOrdering(t *testing.T) {
	pop := ea.Population{
		{Rank: 1, Distance: math.Inf(1)},
		{Rank: 0, Distance: 0.5},
		{Rank: 0, Distance: math.Inf(1)},
		{Rank: 2, Distance: math.Inf(1)},
		{Rank: 0, Distance: 1.5},
	}
	sel := TruncationSelect(pop, 3)
	if sel[0] != pop[2] || sel[1] != pop[4] || sel[2] != pop[1] {
		t.Errorf("selection order wrong: got ranks/distances %v/%v, %v/%v, %v/%v",
			sel[0].Rank, sel[0].Distance, sel[1].Rank, sel[1].Distance, sel[2].Rank, sel[2].Distance)
	}
}

func TestTruncationSelectClampsN(t *testing.T) {
	pop := ea.Population{{Rank: 0}}
	sel := TruncationSelect(pop, 10)
	if len(sel) != 1 {
		t.Errorf("len(sel) = %d, want 1", len(sel))
	}
}

func TestSelectKeepsParetoFront(t *testing.T) {
	pop := popFrom(
		ea.Fitness{1, 1}, ea.Fitness{0, 2}, ea.Fitness{2, 0}, // front 0
		ea.Fitness{3, 3}, ea.Fitness{4, 4}, ea.Fitness{5, 5},
	)
	sel := Select(pop, 3)
	for _, ind := range sel {
		if ind.Rank != 0 {
			t.Errorf("selected individual with rank %d, want 0", ind.Rank)
		}
	}
}

func TestNonDominatedMatchesFirstFront(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pop := make(ea.Population, 100)
	for i := range pop {
		pop[i] = &ea.Individual{Fitness: ea.Fitness{rng.Float64(), rng.Float64()}}
	}
	fronts := FastNonDominatedSort(pop)
	nd := NonDominated(pop)
	if len(nd) != len(fronts[0]) {
		t.Errorf("NonDominated size %d != first front size %d", len(nd), len(fronts[0]))
	}
	set := map[*ea.Individual]bool{}
	for _, ind := range fronts[0] {
		set[ind] = true
	}
	for _, ind := range nd {
		if !set[ind] {
			t.Error("NonDominated member missing from first front")
		}
	}
}

func TestEqualFitness(t *testing.T) {
	if !Equal(ea.Fitness{1, 2}, ea.Fitness{1, 2}) {
		t.Error("Equal(same) = false")
	}
	if Equal(ea.Fitness{1, 2}, ea.Fitness{1, 3}) {
		t.Error("Equal(diff) = true")
	}
	if Equal(ea.Fitness{1}, ea.Fitness{1, 2}) {
		t.Error("Equal(length mismatch) = true")
	}
}

func TestSelectNeverDropsFirstFrontWhenItFits(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		pop := make(ea.Population, 60)
		for i := range pop {
			pop[i] = &ea.Individual{Fitness: ea.Fitness{rng.Float64(), rng.Float64()}}
		}
		front := NonDominated(pop)
		n := len(front) + rng.Intn(10)
		if n > len(pop) {
			n = len(pop)
		}
		sel := Select(pop, n)
		inSel := map[*ea.Individual]bool{}
		for _, ind := range sel {
			inSel[ind] = true
		}
		for _, f := range front {
			if !inSel[f] {
				t.Fatalf("trial %d: first-front member dropped with n=%d ≥ front=%d",
					trial, n, len(front))
			}
		}
	}
}
