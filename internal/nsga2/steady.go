package nsga2

import (
	"context"
	"math/rand"
	"sync"

	"repro/internal/ea"
)

// SteadyConfig configures the asynchronous steady-state NSGA-II variant.
// The paper's deployment is synchronous-generational: all 100 nodes must
// finish before selection runs, so every generation waits for its slowest
// training (§2.2.5).  The steady-state variant — in the spirit of the
// asynchronous EAs the authors cite (Scott et al.) — keeps every worker
// busy: as soon as an evaluation returns, the individual is merged into
// the population, selection truncates, and a fresh offspring is bred and
// dispatched.  Total evaluations match the generational budget, so the
// two schemes are directly comparable (ablation benchmark).
type SteadyConfig struct {
	PopSize     int
	Evaluations int // total evaluation budget (e.g. PopSize × generations)
	Bounds      ea.Bounds
	InitialStd  []float64
	// AnnealFactor is applied every PopSize completions, approximating
	// the generational annealing cadence.
	AnnealFactor float64
	Evaluator    ea.Evaluator
	Parallelism  int
	Seed         int64
}

// RunSteadyState executes the asynchronous steady-state loop and returns
// the final population plus every evaluated individual in completion
// order.
func RunSteadyState(ctx context.Context, cfg SteadyConfig) (final, all ea.Population, err error) {
	if cfg.PopSize <= 0 || cfg.Evaluations < cfg.PopSize {
		return nil, nil, errSteadyConfig
	}
	if err := cfg.Bounds.Validate(); err != nil {
		return nil, nil, err
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = 1
	}
	if cfg.AnnealFactor == 0 {
		cfg.AnnealFactor = 0.85
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	eaCtx := ea.NewContext(cfg.InitialStd)

	// The breeding loop runs in one goroutine (owning rng and the
	// population); workers evaluate concurrently.
	type job struct{ ind *ea.Individual }
	jobs := make(chan job, cfg.Parallelism)
	done := make(chan *ea.Individual, cfg.Parallelism)

	var wg sync.WaitGroup
	workerCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	for w := 0; w < cfg.Parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				ea.EvaluateIndividual(workerCtx, j.ind, cfg.Evaluator, 0, 2)
				select {
				case done <- j.ind:
				case <-workerCtx.Done():
					return
				}
			}
		}()
	}

	pop := ea.RandomPopulation(rng, cfg.Bounds, cfg.PopSize, 0)
	breed := func(parents ea.Population, gen int) *ea.Individual {
		stream := ea.Pipe(
			ea.RandomSelection(rng, parents),
			ea.Clone(),
			ea.MutateGaussian(rng, eaCtx, cfg.Bounds),
			ea.SetBirth(gen),
		)
		ind, _ := stream()
		return ind
	}

	dispatched := 0
	completed := 0
	var current ea.Population // evaluated members only

	// next breeds (or draws from the initial random population) the next
	// individual to evaluate.
	next := func() *ea.Individual {
		if dispatched < cfg.PopSize {
			return pop[dispatched]
		}
		parents := current
		if len(parents) == 0 {
			parents = pop[:1]
		}
		return breed(parents, 1+completed/cfg.PopSize)
	}

	// Prime every worker, then replace each completion with one dispatch:
	// at most Parallelism jobs are ever in flight, so the buffered sends
	// below never block.
	prime := cfg.Parallelism
	if prime > cfg.Evaluations {
		prime = cfg.Evaluations
	}
	for i := 0; i < prime; i++ {
		jobs <- job{next()}
		dispatched++
	}

	for completed < cfg.Evaluations {
		select {
		case ind := <-done:
			if !ind.Evaluated {
				// Cancellation propagated from EvaluateIndividual: the
				// individual carries no fitness, so it must not enter the
				// sorted population; the ctx.Done branch ends the run.
				continue
			}
			completed++
			all = append(all, ind)
			current = merge(current, ind, cfg.PopSize)
			if completed%cfg.PopSize == 0 {
				eaCtx.AnnealStd(cfg.AnnealFactor)
			}
			if dispatched < cfg.Evaluations {
				jobs <- job{next()}
				dispatched++
			}
		case <-ctx.Done():
			close(jobs)
			cancel()
			wg.Wait()
			return nil, nil, ctx.Err()
		}
	}
	close(jobs)
	cancel()
	wg.Wait()
	return current, all, nil
}

// merge inserts one evaluated individual and truncates to popSize.
func merge(current ea.Population, ind *ea.Individual, popSize int) ea.Population {
	current = append(current, ind)
	if len(current) <= popSize {
		return current
	}
	return Select(current, popSize)
}

var errSteadyConfig = errConfig("nsga2: steady-state needs PopSize > 0 and Evaluations >= PopSize")

type errConfig string

func (e errConfig) Error() string { return string(e) }
