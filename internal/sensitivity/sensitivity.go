// Package sensitivity implements the hyperparameter screening the paper
// describes running before its formal experiments: the seven tuned
// parameters "were indicated as worthy of exploration based on initial
// sensitivity testing" (§2.2.1), and the 40 000-step training length came
// from "sensitivity runs" (§2.2.5).  Two standard global methods are
// provided over any evaluator:
//
//   - One-at-a-time (OAT) sweeps: vary each gene across its range with
//     all others pinned at a baseline, recording each objective's
//     response curve and spread.
//   - Morris elementary-effects screening: r randomized trajectories on a
//     p-level grid, yielding μ* (mean absolute elementary effect ≈ main
//     influence) and σ (interaction/nonlinearity) per gene and objective.
package sensitivity

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/ea"
)

// OATPoint is one sample of a one-at-a-time sweep.
type OATPoint struct {
	Value   float64    // gene value
	Fitness ea.Fitness // objectives, nil if the evaluation failed
}

// OATResult is the sweep of one gene.
type OATResult struct {
	Gene     int
	Name     string
	Points   []OATPoint
	Failures int
	// Spread[k] is max−min of objective k over successful points.
	Spread []float64
}

// OAT sweeps every gene across its bounds with steps samples each, others
// pinned to baseline.  Failed evaluations are recorded and excluded from
// spreads.
func OAT(ctx context.Context, ev ea.Evaluator, bounds ea.Bounds, names []string,
	baseline ea.Genome, steps, objectives int) ([]OATResult, error) {

	if len(baseline) != len(bounds) {
		return nil, fmt.Errorf("sensitivity: baseline length %d != bounds %d", len(baseline), len(bounds))
	}
	if steps < 2 {
		steps = 2
	}
	out := make([]OATResult, len(bounds))
	for g := range bounds {
		res := OATResult{Gene: g, Spread: make([]float64, objectives)}
		if names != nil && g < len(names) {
			res.Name = names[g]
		}
		mins := make([]float64, objectives)
		maxs := make([]float64, objectives)
		for k := range mins {
			mins[k] = math.Inf(1)
			maxs[k] = math.Inf(-1)
		}
		for s := 0; s < steps; s++ {
			genome := baseline.Clone()
			v := bounds[g].Lo + bounds[g].Width()*float64(s)/float64(steps-1)
			genome[g] = v
			fit, err := ev.Evaluate(ctx, genome)
			if ctxErr := ctx.Err(); ctxErr != nil {
				return nil, ctxErr
			}
			pt := OATPoint{Value: v}
			if err != nil {
				res.Failures++
			} else {
				pt.Fitness = fit
				for k := 0; k < objectives && k < len(fit); k++ {
					if fit[k] < mins[k] {
						mins[k] = fit[k]
					}
					if fit[k] > maxs[k] {
						maxs[k] = fit[k]
					}
				}
			}
			res.Points = append(res.Points, pt)
		}
		for k := range res.Spread {
			if maxs[k] >= mins[k] {
				res.Spread[k] = maxs[k] - mins[k]
			}
		}
		out[g] = res
	}
	return out, nil
}

// MorrisResult holds the elementary-effects statistics of one gene.
type MorrisResult struct {
	Gene int
	Name string
	// MuStar[k] is the mean absolute elementary effect on objective k;
	// Sigma[k] its standard deviation (nonlinearity/interactions).
	MuStar []float64
	Sigma  []float64
	// Effects counts usable elementary effects (failures excluded).
	Effects int
}

// Morris runs elementary-effects screening with r trajectories on a
// levels-point grid.  Effects are normalized by each gene's range, so
// MuStar is comparable across genes with different units.
func Morris(ctx context.Context, ev ea.Evaluator, bounds ea.Bounds, names []string,
	r, levels, objectives int, seed int64) ([]MorrisResult, error) {

	if r < 2 {
		r = 2
	}
	if levels < 4 {
		levels = 4
	}
	n := len(bounds)
	rng := rand.New(rand.NewSource(seed))
	delta := float64(levels) / (2 * float64(levels-1)) // standard Morris Δ

	effects := make([][][]float64, n) // effects[g][k] = samples
	for g := range effects {
		effects[g] = make([][]float64, objectives)
	}

	for traj := 0; traj < r; traj++ {
		// Random grid base point with room for +Δ moves (unit space).
		unit := make([]float64, n)
		for g := range unit {
			maxLevel := int(float64(levels-1) * (1 - delta))
			unit[g] = float64(rng.Intn(maxLevel+1)) / float64(levels-1)
		}
		order := rng.Perm(n)
		cur := fromUnit(unit, bounds)
		curFit, curErr := ev.Evaluate(ctx, cur)
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		for _, g := range order {
			unit[g] += delta
			next := fromUnit(unit, bounds)
			nextFit, nextErr := ev.Evaluate(ctx, next)
			if ctxErr := ctx.Err(); ctxErr != nil {
				return nil, ctxErr
			}
			if curErr == nil && nextErr == nil {
				for k := 0; k < objectives; k++ {
					ee := (nextFit[k] - curFit[k]) / delta
					effects[g][k] = append(effects[g][k], ee)
				}
			}
			curFit, curErr = nextFit, nextErr
		}
	}

	out := make([]MorrisResult, n)
	for g := 0; g < n; g++ {
		res := MorrisResult{Gene: g, MuStar: make([]float64, objectives), Sigma: make([]float64, objectives)}
		if names != nil && g < len(names) {
			res.Name = names[g]
		}
		for k := 0; k < objectives; k++ {
			samples := effects[g][k]
			res.Effects = len(samples)
			if len(samples) == 0 {
				continue
			}
			mu := 0.0
			for _, e := range samples {
				mu += math.Abs(e)
			}
			mu /= float64(len(samples))
			res.MuStar[k] = mu
			if len(samples) > 1 {
				mean := 0.0
				for _, e := range samples {
					mean += e
				}
				mean /= float64(len(samples))
				varSum := 0.0
				for _, e := range samples {
					d := e - mean
					varSum += d * d
				}
				res.Sigma[k] = math.Sqrt(varSum / float64(len(samples)-1))
			}
		}
		out[g] = res
	}
	return out, nil
}

func fromUnit(unit []float64, bounds ea.Bounds) ea.Genome {
	g := make(ea.Genome, len(unit))
	for i, u := range unit {
		g[i] = bounds[i].Lo + u*bounds[i].Width()
	}
	return g
}

// RenderMorris formats the screening table, objectives side by side.
func RenderMorris(results []MorrisResult, objectiveNames []string) string {
	var b strings.Builder
	b.WriteString("Morris elementary-effects screening (μ* = influence, σ = interactions)\n")
	fmt.Fprintf(&b, "%-20s", "gene")
	for _, on := range objectiveNames {
		fmt.Fprintf(&b, " %12s %12s", "mu*("+on+")", "sigma("+on+")")
	}
	fmt.Fprintf(&b, " %8s\n", "effects")
	for _, r := range results {
		name := r.Name
		if name == "" {
			name = fmt.Sprintf("gene%d", r.Gene)
		}
		fmt.Fprintf(&b, "%-20s", name)
		for k := range objectiveNames {
			fmt.Fprintf(&b, " %12.4g %12.4g", r.MuStar[k], r.Sigma[k])
		}
		fmt.Fprintf(&b, " %8d\n", r.Effects)
	}
	return b.String()
}

// RenderOAT formats the sweep spreads.
func RenderOAT(results []OATResult, objectiveNames []string) string {
	var b strings.Builder
	b.WriteString("One-at-a-time sweeps (objective spread over each gene's range)\n")
	fmt.Fprintf(&b, "%-20s", "gene")
	for _, on := range objectiveNames {
		fmt.Fprintf(&b, " %14s", "spread("+on+")")
	}
	fmt.Fprintf(&b, " %9s\n", "failures")
	for _, r := range results {
		name := r.Name
		if name == "" {
			name = fmt.Sprintf("gene%d", r.Gene)
		}
		fmt.Fprintf(&b, "%-20s", name)
		for k := range objectiveNames {
			fmt.Fprintf(&b, " %14.4g", r.Spread[k])
		}
		fmt.Fprintf(&b, " %9d\n", r.Failures)
	}
	return b.String()
}
