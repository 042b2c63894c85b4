package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/ea"
	"repro/internal/hpo"
	"repro/internal/nsga2"
	"repro/internal/surrogate"
)

// AblationVariant is one design-choice variant of the paper's EA, scored
// on the HPO problem under an identical evaluation budget and seed.
type AblationVariant struct {
	Name        string
	Hypervolume float64 // pooled-final-population HV vs. RefPoint
	FrontSize   int
	Failures    int
	Accurate    int
}

// AblationResult collects all variants.
type AblationResult struct {
	Variants []AblationVariant
	Budget   int // evaluations per variant
}

// PipelineAblation compares the paper's design choices against
// alternatives on the actual tuning problem:
//
//   - "paper": random parent selection + clone + annealed isotropic
//     Gaussian mutation, σ×0.85 per generation (§2.2.3, Listing 1).
//   - "canonical": binary crowded-tournament selection + SBX crossover +
//     polynomial mutation — the textbook NSGA-II variation the paper
//     replaced.
//   - "steady-state": asynchronous steady-state selection at the same
//     budget (the idle-node remedy of §2.2.5's synchronous scheme).
func PipelineAblation(ctx context.Context, opts Options) (*AblationResult, error) {
	if opts.Runs <= 0 {
		opts = Options{Runs: 2, PopSize: 60, Generations: 5, Seed: 11, Parallelism: 8}
	}
	rep := hpo.PaperRepresentation()
	budget := opts.PopSize * (opts.Generations + 1)
	out := &AblationResult{Budget: budget * opts.Runs}

	newEval := func() ea.Evaluator {
		return surrogate.NewEvaluator(surrogate.Config{Seed: opts.Seed})
	}

	runGenerational := func(name string, breeder func(*rand.Rand, *ea.Context, ea.Population, int) ea.Stream) error {
		var pool ea.Population
		failures := 0
		for r := 0; r < opts.Runs; r++ {
			res, err := nsga2.Run(ctx, nsga2.Config{
				PopSize: opts.PopSize, Generations: opts.Generations,
				Bounds: rep.Bounds, InitialStd: rep.Std,
				AnnealFactor: nsga2.PaperAnnealFactor, Evaluator: newEval(),
				Pool:    ea.PoolConfig{Parallelism: opts.Parallelism, Objectives: 2},
				Seed:    opts.Seed + int64(r),
				Breeder: breeder,
			})
			if err != nil {
				return fmt.Errorf("experiments: ablation %s run %d: %w", name, r, err)
			}
			pool = append(pool, res.Final...)
			failures += res.TotalFailures()
		}
		out.Variants = append(out.Variants, scoreVariant(name, pool, failures))
		return nil
	}

	// 1. The paper's pipeline.
	if err := runGenerational("paper (random+gaussian, anneal 0.85)", nil); err != nil {
		return nil, err
	}
	// 2. Canonical NSGA-II variation.
	bounds := rep.Bounds
	canonical := func(rng *rand.Rand, _ *ea.Context, parents ea.Population, gen int) ea.Stream {
		pm := 1.0 / float64(len(bounds))
		return ea.Pipe(
			nsga2.TournamentSelection(rng, parents),
			ea.Clone(),
			ea.SBX(rng, bounds, 15, 0.9),
			ea.MutatePolynomial(rng, bounds, 20, pm),
			ea.SetBirth(gen),
		)
	}
	if err := runGenerational("canonical (tournament+SBX+polynomial)", canonical); err != nil {
		return nil, err
	}
	// 3. Asynchronous steady-state at the same budget.
	{
		var pool ea.Population
		failures := 0
		for r := 0; r < opts.Runs; r++ {
			final, all, err := nsga2.RunSteadyState(ctx, nsga2.Config{
				PopSize: opts.PopSize, Generations: opts.Generations,
				Bounds: rep.Bounds, InitialStd: rep.Std,
				AnnealFactor: nsga2.PaperAnnealFactor, Evaluator: newEval(),
				Pool: ea.PoolConfig{Parallelism: opts.Parallelism},
				Seed: opts.Seed + int64(r),
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: steady-state ablation run %d: %w", r, err)
			}
			pool = append(pool, final...)
			for _, ind := range all {
				if ind.Fitness.IsFailure() {
					failures++
				}
			}
		}
		out.Variants = append(out.Variants, scoreVariant("steady-state (async, anneal 0.85)", pool, failures))
	}
	return out, nil
}

func scoreVariant(name string, pool ea.Population, failures int) AblationVariant {
	front := nsga2.NonDominated(pool)
	acc := 0
	for _, ind := range pool {
		if hpo.ChemicallyAccurate(ind.Fitness) {
			acc++
		}
	}
	return AblationVariant{
		Name:        name,
		Hypervolume: nsga2.Hypervolume2D(pool, RefPoint),
		FrontSize:   len(front),
		Failures:    failures,
		Accurate:    acc,
	}
}

// Render formats the ablation table.
func (a *AblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "EA design-choice ablation on the HPO problem (%d evaluations per variant)\n\n", a.Budget)
	fmt.Fprintf(&b, "%-46s %12s %7s %9s %9s\n", "variant", "hypervolume", "front", "failures", "accurate")
	for _, v := range a.Variants {
		fmt.Fprintf(&b, "%-46s %12.6f %7d %9d %9d\n", v.Name, v.Hypervolume, v.FrontSize, v.Failures, v.Accurate)
	}
	return b.String()
}
