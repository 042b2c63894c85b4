package nsga2

import (
	"context"
	"sync"

	"repro/internal/ea"
)

// RunSteadyState is the asynchronous steady-state policy over the same
// search.  The paper's deployment is synchronous-generational: all 100
// nodes must finish before selection runs, so every generation waits for
// its slowest training (§2.2.5).  The steady-state policy — in the spirit
// of the asynchronous EAs the authors cite (Scott et al.) — keeps every
// worker busy: as soon as an evaluation returns, the individual is merged
// into the population, selection truncates, and one fresh offspring is
// bred and dispatched.  At most Pool.Parallelism evaluations are in
// flight, and the budget is the generational one, PopSize ×
// (Generations+1), so the two schemes are directly comparable (ablation
// benchmark).  σ anneals every PopSize completions, counting the initial
// population, approximating the generational cadence.
//
// It returns the final population plus every evaluated individual in
// completion order.  Observer is not called.
func RunSteadyState(ctx context.Context, cfg Config) (final, all ea.Population, err error) {
	e, err := newEngine(cfg)
	if err != nil {
		return nil, nil, err
	}
	cfg = e.cfg
	budget := cfg.PopSize * (cfg.Generations + 1)
	par := max(cfg.Pool.Parallelism, 1)

	// The policy runs in this goroutine (owning the engine); workers
	// evaluate concurrently.
	jobs := make(chan *ea.Individual, par)
	done := make(chan *ea.Individual, par)

	var wg sync.WaitGroup
	workerCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ind := range jobs {
				if !ind.Evaluated { // a warm-start member keeps its fitness
					ea.EvaluateIndividual(workerCtx, ind, cfg.Evaluator, cfg.Pool.Timeout, cfg.Pool.Objectives)
				}
				select {
				case done <- ind:
				case <-workerCtx.Done():
					return
				}
			}
		}()
	}
	stop := func() {
		close(jobs)
		cancel()
		wg.Wait()
	}

	// Prime every worker, then replace each completion with one dispatch:
	// at most par jobs are ever in flight, so the buffered sends below
	// never block.
	dispatched, completed := 0, 0
	for ; dispatched < min(par, budget); dispatched++ {
		jobs <- e.ask(1, 1+completed/cfg.PopSize)[0]
	}
	for completed < budget {
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
			e.tell(ea.Population{ind})
			if completed%cfg.PopSize == 0 {
				e.eaCtx.AnnealStd(cfg.AnnealFactor)
			}
			if dispatched < budget {
				jobs <- e.ask(1, 1+completed/cfg.PopSize)[0]
				dispatched++
			}
		case <-ctx.Done():
			stop()
			return nil, nil, ctx.Err()
		}
	}
	stop()
	return e.pop, all, nil
}
