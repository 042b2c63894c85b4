package nsga2

import (
	"sort"

	"repro/internal/ea"
)

// Hypervolume2D computes the exact hypervolume indicator of a
// bi-objective population relative to a reference point (both objectives
// minimized; the reference must be weakly worse than every member).
// Dominated members contribute nothing, so passing a whole population is
// fine.  Hypervolume is the standard scalar measure of multiobjective
// convergence+diversity; the per-generation table of Fig. 1 uses it to
// quantify what the level plots show visually.
func Hypervolume2D(pop ea.Population, ref ea.Fitness) float64 {
	if len(ref) != 2 {
		panic("nsga2: Hypervolume2D needs a 2-objective reference")
	}
	// Collect members that dominate the reference region.  Non-finite
	// fitnesses are skipped like MAXINT failures: a stray -Inf objective
	// must not contribute unbounded volume.
	var pts [][2]float64
	for _, ind := range pop {
		f := ind.Fitness
		if len(f) != 2 || f.IsFailure() || nonFinite(f) {
			continue
		}
		if f[0] < ref[0] && f[1] < ref[1] {
			pts = append(pts, [2]float64{f[0], f[1]})
		}
	}
	if len(pts) == 0 {
		return 0
	}
	// Keep only the non-dominated staircase: sort by f0 asc, f1 asc; keep
	// points with strictly decreasing f1.
	sort.Slice(pts, func(i, j int) bool {
		//lint:ignore floateq lexicographic tie-break must distinguish exact bit-equality to keep the staircase deterministic
		if pts[i][0] != pts[j][0] {
			return pts[i][0] < pts[j][0]
		}
		return pts[i][1] < pts[j][1]
	})
	var stair [][2]float64
	bestF1 := ref[1]
	for _, p := range pts {
		if p[1] < bestF1 {
			stair = append(stair, p)
			bestF1 = p[1]
		}
	}
	// Sweep: each step contributes (next_f0 − f0) × (ref1 − f1).
	hv := 0.0
	for i, p := range stair {
		next := ref[0]
		if i+1 < len(stair) {
			next = stair[i+1][0]
		}
		hv += (next - p[0]) * (ref[1] - p[1])
	}
	return hv
}
