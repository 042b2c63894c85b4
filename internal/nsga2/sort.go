package nsga2

import (
	"sort"

	"repro/internal/ea"
)

// FastNonDominatedSort partitions the population into Pareto fronts using
// Deb's original O(M·N²) fast non-dominated sort, writing each member's
// front index into Individual.Rank (0 = best).  Fronts are returned best
// first.  It is retained as the reference implementation; RankOrdinalSort
// is the production path.
func FastNonDominatedSort(pop ea.Population) []ea.Population {
	n := len(pop)
	if n == 0 {
		return nil
	}
	dominatedBy := make([][]int, n) // indices each individual dominates
	domCount := make([]int, n)      // how many individuals dominate i

	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			switch {
			case Dominates(pop[i].Fitness, pop[j].Fitness):
				dominatedBy[i] = append(dominatedBy[i], j)
				domCount[j]++
			case Dominates(pop[j].Fitness, pop[i].Fitness):
				dominatedBy[j] = append(dominatedBy[j], i)
				domCount[i]++
			}
		}
	}

	var fronts []ea.Population
	var current []int
	for i := 0; i < n; i++ {
		if domCount[i] == 0 {
			current = append(current, i)
			pop[i].Rank = 0
		}
	}
	for len(current) > 0 {
		front := make(ea.Population, len(current))
		for k, idx := range current {
			front[k] = pop[idx]
		}
		fronts = append(fronts, front)

		var next []int
		rank := len(fronts)
		for _, idx := range current {
			for _, j := range dominatedBy[idx] {
				domCount[j]--
				if domCount[j] == 0 {
					pop[j].Rank = rank
					next = append(next, j)
				}
			}
		}
		current = next
	}
	return fronts
}

// RankOrdinalSort partitions the population into Pareto fronts using an
// efficient rank-based scheme in the spirit of Burlacu (2022), the
// improved sorting the paper adopted for a significant NSGA-II speed-up
// (§2.1.4).  Individuals are processed in lexicographic fitness order — so
// an individual can only be dominated by individuals placed before it —
// and each is assigned to the earliest compatible front located by binary
// search over the existing fronts.  The expected cost is O(M·N·log N) on
// typical populations versus O(M·N²) for the Deb sort; worst case matches
// the naive bound.  Results are identical to FastNonDominatedSort
// (property-tested).
func RankOrdinalSort(pop ea.Population) []ea.Population {
	n := len(pop)
	if n == 0 {
		return nil
	}
	// Sort indices lexicographically by fitness so that any dominator of x
	// appears before x.  Ties (identical fitness vectors) are mutual
	// non-dominators and land in the same front naturally.  Non-finite
	// fitnesses sort after every finite one (in stable input order among
	// themselves): they are dominated by all finite members and dominate
	// nothing, so placing them last preserves the invariant — NaN must not
	// reach the lexicographic comparison, where it would wreck totality.
	bad := make([]bool, n)
	for i, ind := range pop {
		bad[i] = nonFinite(ind.Fitness)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if bad[ia] != bad[ib] {
			return !bad[ia]
		}
		if bad[ia] {
			return false
		}
		fa, fb := pop[ia].Fitness, pop[ib].Fitness
		for k := range fa {
			//lint:ignore floateq lexicographic tie-break must distinguish exact bit-equality to keep the order total and replayable
			if fa[k] != fb[k] {
				return fa[k] < fb[k]
			}
		}
		return false
	})

	var fronts []ea.Population

	// dominatedByFront reports whether any member of fronts[f] dominates
	// cand.  Members are checked newest-first: recently added members are
	// the most likely dominators of the lexicographically next candidate.
	dominatedByFront := func(f int, cand ea.Fitness) bool {
		fr := fronts[f]
		for i := len(fr) - 1; i >= 0; i-- {
			if Dominates(fr[i].Fitness, cand) {
				return true
			}
		}
		return false
	}

	for _, idx := range order {
		cand := pop[idx]
		// Binary search for the first front whose members do not dominate
		// the candidate.  Front dominance is monotone in f: if front f has
		// no dominator of cand, no later front can have one either (every
		// member of front f+1 is dominated by some member of front f).
		lo, hi := 0, len(fronts)
		for lo < hi {
			mid := (lo + hi) / 2
			if dominatedByFront(mid, cand.Fitness) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == len(fronts) {
			fronts = append(fronts, ea.Population{})
		}
		cand.Rank = lo
		fronts[lo] = append(fronts[lo], cand)
	}
	return fronts
}
