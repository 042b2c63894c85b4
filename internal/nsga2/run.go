package nsga2

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/ea"
)

// PaperAnnealFactor is the paper's mutation-σ anneal factor: every σ is
// multiplied by 0.85 after each offspring generation (§2.2.3, Listing 1's
// context['std'] *= 0.85).  It is Config.AnnealFactor's default.
const PaperAnnealFactor = 0.85

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
	// AnnealFactor multiplies every σ after each generation; zero means
	// PaperAnnealFactor.  Use 1 to disable annealing (ablation).
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
	// population instead of a random one.  Already-evaluated members keep
	// their fitness; unevaluated ones are evaluated in generation 0.  Its
	// length must equal PopSize.
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
// of Initial that carry no fitness yet.  Run is Continue with no log.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	return Continue(ctx, cfg, nil)
}

// Continue is Run carried on from a log of its first generations: how a
// campaign outlives a walltime-limited batch job (the paper's Summit jobs
// were capped at 12 hours, §2.2.5).  A logged generation is replayed, not
// evaluated: the search asks for its batch as Run does, every asked
// genome must equal the logged one at its position bit for bit, and the
// logged individuals stand in for the batch; after selection and σ
// annealing the survivors must be the logged ones, in order.  A log from
// another configuration or seed, or with an edited genome or fitness, is
// refused with the first generation and position that disagree.  The
// generations after the log are evaluated, so a continued run ends on the
// bits of one that never stopped.  logged holds at most Generations+1
// records; the result holds them, then the new ones, and the search
// re-ranks their individuals.  Observer sees only the generations this
// call evaluates.  Pool.Workers defaults to one Workers for the run.
func Continue(ctx context.Context, cfg Config, logged []GenerationRecord) (*Result, error) {
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	if len(logged) > cfg.Generations+1 {
		return nil, fmt.Errorf("nsga2: the log holds %d generations, the run has %d", len(logged), cfg.Generations+1)
	}
	if e.cfg.Pool.Workers == nil {
		e.cfg.Pool.Workers = ea.NewWorkers(e.cfg.Pool.Parallelism)
		defer e.cfg.Pool.Workers.Close()
	}
	res := &Result{}
	pending := make(ea.Population, 0, cfg.PopSize) // EvalPool keeps no reference to it
	for gen := 0; gen <= cfg.Generations; gen++ {
		batch := e.ask(cfg.PopSize, gen)
		replay := gen < len(logged)
		if replay {
			rec := logged[gen]
			if len(rec.Evaluated) != len(batch) {
				return nil, fmt.Errorf("nsga2: generation %d: the log has %d individuals, the search asks for %d", gen, len(rec.Evaluated), len(batch))
			}
			for i, ind := range rec.Evaluated {
				if !ind.Evaluated || !slices.EqualFunc(ind.Genome, batch[i].Genome, sameBits) {
					return nil, fmt.Errorf("nsga2: generation %d, position %d: the log's individual is not the evaluated genome the search asks for", gen, i)
				}
			}
			batch = rec.Evaluated
		} else {
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
		}
		e.tell(batch)
		if gen > 0 {
			// Anneal mutation σ after the offspring return from the
			// pipeline, exactly where the paper multiplies
			// context['std'] by PaperAnnealFactor.
			e.eaCtx.AnnealStd(e.cfg.AnnealFactor)
		}
		if replay {
			want, i := logged[gen].Survivors, 0
			for i < min(len(want), len(e.pop)) && want[i] == e.pop[i] {
				i++
			}
			if i < len(want) || i < len(e.pop) {
				return nil, fmt.Errorf("nsga2: generation %d, survivor %d: selection disagrees with the log", gen, i)
			}
			res.Generations = append(res.Generations, logged[gen])
			continue
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

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
