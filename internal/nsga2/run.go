package nsga2

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/ea"
)

// Config parameterizes an NSGA-II run matching the paper's setup (§2.2.3,
// §2.2.5): population size equal to the number of compute nodes, random
// parent selection, cloning, annealed isotropic Gaussian mutation with
// hard bounds, pooled parallel evaluation, then combined parent+offspring
// environmental selection.  Run executes it generationally,
// RunSteadyState asynchronously with the same evaluation budget.
type Config struct {
	// PopSize is both the parent and offspring population size (100 in the
	// paper, one individual per Summit node).
	PopSize int
	// Generations is the number of offspring generations after the random
	// initial population (6 in the paper, for 7 evaluation rounds total).
	Generations int
	// Bounds give per-gene initialization ranges and mutation hard bounds
	// (Table 1, column 2).
	Bounds ea.Bounds
	// InitialStd is the starting Gaussian-mutation σ per gene (Table 1,
	// column 3).
	InitialStd []float64
	// AnnealFactor multiplies every σ after each generation; the paper
	// uses 0.85.  Use 1 to disable annealing (ablation).
	AnnealFactor float64
	// Evaluator computes the multiobjective fitness.
	Evaluator ea.Evaluator
	// Pool configures parallel evaluation (parallelism, per-individual
	// timeout, objective count).
	Pool ea.PoolConfig
	// Seed makes the run reproducible.
	Seed int64
	// Observer, if non-nil, is invoked after each generation with the
	// individuals evaluated in that generation and the survivors selected
	// as the next parents.  Generation 0 is the random initial population.
	Observer func(gen int, evaluated, survivors ea.Population)
	// Breeder, if non-nil, replaces the paper's reproduction pipeline
	// (random selection → clone → annealed isotropic Gaussian mutation)
	// with a custom offspring stream — used by the operator ablations to
	// compare against canonical tournament+SBX+polynomial variation.
	Breeder func(rng *rand.Rand, eaCtx *ea.Context, parents ea.Population, gen int) ea.Stream
	// Initial, if non-nil, warm-starts the run from an existing
	// population instead of a random one — how a campaign continues after
	// a walltime-limited batch job (the paper's jobs were capped at 12
	// hours, §2.2.5).  Already-evaluated members keep their fitness;
	// unevaluated ones are evaluated in generation 0.  Its length must
	// equal PopSize.
	Initial ea.Population
}

// Validate checks the configuration for structural errors.
func (c *Config) Validate() error {
	if c.PopSize <= 0 {
		return errors.New("nsga2: PopSize must be positive")
	}
	if c.Generations < 0 {
		return errors.New("nsga2: Generations must be non-negative")
	}
	if len(c.Bounds) == 0 {
		return errors.New("nsga2: Bounds must be non-empty")
	}
	if err := c.Bounds.Validate(); err != nil {
		return err
	}
	if len(c.InitialStd) != len(c.Bounds) {
		return fmt.Errorf("nsga2: InitialStd length %d != genome length %d", len(c.InitialStd), len(c.Bounds))
	}
	if c.Evaluator == nil {
		return errors.New("nsga2: Evaluator is required")
	}
	if c.AnnealFactor < 0 {
		return errors.New("nsga2: AnnealFactor must be non-negative")
	}
	if c.Initial != nil && len(c.Initial) != c.PopSize {
		return fmt.Errorf("nsga2: Initial population has %d members, PopSize is %d", len(c.Initial), c.PopSize)
	}
	return nil
}

// GenerationRecord captures one generation of a run for later analysis
// (the material behind Figs. 1–3 and Tables 2–3).
type GenerationRecord struct {
	Gen       int           // generation index, 0 = initial random population
	Evaluated ea.Population // individuals evaluated in this generation
	Survivors ea.Population // parents selected for the next generation
	Failures  int           // evaluations that received MAXINT fitness
}

// Result is the outcome of a full NSGA-II run.
type Result struct {
	Generations []GenerationRecord
	// Final is the surviving parent population after the last generation —
	// "the last generation" the paper aggregates across runs.
	Final ea.Population
}

// LastEvaluated returns the individuals evaluated in the final generation.
func (r *Result) LastEvaluated() ea.Population {
	if len(r.Generations) == 0 {
		return nil
	}
	return r.Generations[len(r.Generations)-1].Evaluated
}

// TotalEvaluations counts every fitness evaluation performed in the run.
func (r *Result) TotalEvaluations() int {
	n := 0
	for _, g := range r.Generations {
		n += len(g.Evaluated)
	}
	return n
}

// TotalFailures counts evaluations that received failure fitness.
func (r *Result) TotalFailures() int {
	n := 0
	for _, g := range r.Generations {
		n += g.Failures
	}
	return n
}

// Run executes the generational NSGA-II loop described in Listing 1 of the
// paper: for each generation, offspring are produced by random parent
// selection → clone → isotropic Gaussian mutation (annealed σ, hard
// bounds) → pooled evaluation; the combined parent+offspring population is
// rank-sorted with crowding distances and truncated back to PopSize.
// Generation 0 evaluates the random initial population, or the members
// of Initial that carry no fitness yet.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	pending := make(ea.Population, 0, cfg.PopSize) // EvalPool keeps no reference to it
	for gen := 0; gen <= cfg.Generations; gen++ {
		batch := e.ask(cfg.PopSize, gen)
		pending = pending[:0]
		for _, ind := range batch {
			if !ind.Evaluated {
				pending = append(pending, ind)
			}
		}
		if len(pending) > 0 {
			ea.EvalPool(ctx, ea.Source(pending), len(pending), e.cfg.Evaluator, e.cfg.Pool)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		e.tell(batch)
		if gen > 0 {
			// Anneal mutation σ after the offspring return from the
			// pipeline, exactly where the paper multiplies
			// context['std'] by 0.85.
			e.eaCtx.AnnealStd(e.cfg.AnnealFactor)
			e.eaCtx.AdvanceGeneration()
		}
		res.Generations = append(res.Generations, GenerationRecord{
			Gen: gen, Evaluated: batch, Survivors: e.pop, Failures: batch.Failures(),
		})
		if cfg.Observer != nil {
			cfg.Observer(gen, batch, e.pop)
		}
	}
	res.Final = e.pop
	return res, nil
}
