package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/ea"
	"repro/internal/hpo"
	"repro/internal/nsga2"
)

// ConvergenceRow quantifies one generation of the campaign — the numeric
// companion to Fig. 1's level plots.
type ConvergenceRow struct {
	Gen         int
	Hypervolume float64 // exact 2-D HV of the pooled survivors vs. RefPoint
	MinForce    float64 // best force loss among evaluations this generation
	MinEnergy   float64 // best energy loss among evaluations this generation
	MedianForce float64
	Failures    int
	Accurate    int // chemically accurate evaluations this generation
}

// RefPoint is the hypervolume reference: the corner of Fig. 1's plot
// window (force 0.6 eV/Å, energy 0.03 eV/atom), so cropped outliers
// contribute nothing.
var RefPoint = ea.Fitness{0.03, 0.6} // (energy, force) fitness order

// Convergence builds the per-generation table pooled across runs.
func Convergence(c *Campaign) []ConvergenceRow {
	gens := c.Config.Generations + 1
	rows := make([]ConvergenceRow, gens)
	for g := 0; g < gens; g++ {
		row := &rows[g]
		row.Gen = g
		row.MinForce = math.Inf(1)
		row.MinEnergy = math.Inf(1)
		var pooledSurvivors ea.Population
		var forces []float64
		for _, run := range c.Result.Runs {
			if g >= len(run.Generations) {
				continue
			}
			rec := run.Generations[g]
			row.Failures += rec.Failures
			pooledSurvivors = append(pooledSurvivors, rec.Survivors...)
			for _, ind := range rec.Evaluated {
				if ind.Fitness.IsFailure() {
					continue
				}
				if ind.Fitness[1] < row.MinForce {
					row.MinForce = ind.Fitness[1]
				}
				if ind.Fitness[0] < row.MinEnergy {
					row.MinEnergy = ind.Fitness[0]
				}
				forces = append(forces, ind.Fitness[1])
				if hpo.ChemicallyAccurate(ind.Fitness) {
					row.Accurate++
				}
			}
		}
		row.Hypervolume = nsga2.Hypervolume2D(pooledSurvivors, RefPoint)
		if len(forces) > 0 {
			// median via partial sort
			insertionSort(forces)
			row.MedianForce = forces[len(forces)/2]
		}
	}
	return rows
}

func insertionSort(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// RenderConvergence formats the table.
func RenderConvergence(c *Campaign) string {
	var b strings.Builder
	b.WriteString("Per-generation convergence (pooled over runs; HV ref = Fig. 1 window corner)\n")
	fmt.Fprintf(&b, "%4s %14s %10s %10s %12s %9s %9s\n",
		"gen", "hypervolume", "min force", "min energy", "median force", "failures", "accurate")
	for _, r := range Convergence(c) {
		fmt.Fprintf(&b, "%4d %14.6f %10.4f %10.4f %12.4f %9d %9d\n",
			r.Gen, r.Hypervolume, r.MinForce, r.MinEnergy, r.MedianForce, r.Failures, r.Accurate)
	}
	return b.String()
}
