package nsga2

import (
	"sort"

	"repro/internal/ea"
)

// TruncationSelect keeps the best n individuals ordered by ascending rank
// and, within a rank, descending crowding distance — the paper's
// ops.truncation_selection(key=lambda x: (-x.rank, x.distance)) expressed
// for minimization of rank.  Rank and Distance must already be assigned
// (via a sort function and CrowdingDistanceAll).  The input is not
// modified; the result is a fresh slice.
func TruncationSelect(pop ea.Population, n int) ea.Population {
	if n > len(pop) {
		n = len(pop)
	}
	sorted := pop.Clone()
	sort.SliceStable(sorted, func(a, b int) bool {
		if sorted[a].Rank != sorted[b].Rank {
			return sorted[a].Rank < sorted[b].Rank
		}
		return sorted[a].Distance > sorted[b].Distance
	})
	return sorted[:n]
}

// Select runs the full NSGA-II environmental-selection step on a combined
// parent+offspring population: rank-ordinal non-dominated sort, crowding
// distance, then truncation to n survivors.
func Select(pop ea.Population, n int) ea.Population {
	CrowdingDistanceAll(RankOrdinalSort(pop))
	return TruncationSelect(pop, n)
}
