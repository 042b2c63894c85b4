package nsga2

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/ea"
)

// Config parameterizes a generational NSGA-II run matching the paper's
// setup (§2.2.3, §2.2.5): population size equal to the number of compute
// nodes, random parent selection, cloning, annealed isotropic Gaussian
// mutation with hard bounds, pooled parallel evaluation, then combined
// parent+offspring environmental selection.
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
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.AnnealFactor == 0 {
		cfg.AnnealFactor = 0.85
	}
	if cfg.Pool.Objectives <= 0 {
		cfg.Pool.Objectives = 2
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	eaCtx := ea.NewContext(cfg.InitialStd)
	res := &Result{}

	// Generation 0: uniform random initial population, or a warm start.
	var parents ea.Population
	if cfg.Initial != nil {
		if len(cfg.Initial) != cfg.PopSize {
			return nil, fmt.Errorf("nsga2: Initial population has %d members, PopSize is %d",
				len(cfg.Initial), cfg.PopSize)
		}
		parents = cfg.Initial.Clone()
		var pending ea.Population
		for _, ind := range parents {
			if !ind.Evaluated {
				pending = append(pending, ind)
			}
		}
		if len(pending) > 0 {
			ea.EvalPool(ctx, ea.Source(pending), len(pending), cfg.Evaluator, cfg.Pool)
		}
	} else {
		parents = ea.RandomPopulation(rng, cfg.Bounds, cfg.PopSize, 0)
		parents = ea.EvalPool(ctx, ea.Source(parents), cfg.PopSize, cfg.Evaluator, cfg.Pool)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	fronts := RankOrdinalSort(parents)
	CrowdingDistanceAll(fronts)
	rec := GenerationRecord{Gen: 0, Evaluated: parents, Survivors: parents, Failures: parents.Failures()}
	res.Generations = append(res.Generations, rec)
	if cfg.Observer != nil {
		cfg.Observer(0, parents, parents)
	}

	breeder := cfg.Breeder
	if breeder == nil {
		breeder = func(rng *rand.Rand, eaCtx *ea.Context, parents ea.Population, gen int) ea.Stream {
			return ea.Pipe(
				ea.RandomSelection(rng, parents),
				ea.Clone(),
				ea.MutateGaussian(rng, eaCtx, cfg.Bounds),
				ea.SetBirth(gen),
			)
		}
	}

	for gen := 1; gen <= cfg.Generations; gen++ {
		stream := breeder(rng, eaCtx, parents, gen)
		offspring := ea.EvalPool(ctx, stream, cfg.PopSize, cfg.Evaluator, cfg.Pool)
		if err := ctx.Err(); err != nil {
			return nil, err
		}

		combined := append(parents.Clone(), offspring...)
		parents = Select(combined, cfg.PopSize)

		// Anneal mutation σ after the offspring return from the pipeline,
		// exactly where the paper multiplies context['std'] by 0.85.
		eaCtx.AnnealStd(cfg.AnnealFactor)
		eaCtx.AdvanceGeneration()

		rec := GenerationRecord{Gen: gen, Evaluated: offspring, Survivors: parents, Failures: offspring.Failures()}
		res.Generations = append(res.Generations, rec)
		if cfg.Observer != nil {
			cfg.Observer(gen, offspring, parents)
		}
	}

	res.Final = parents
	return res, nil
}
