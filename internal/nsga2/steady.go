package nsga2

import (
	"context"

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

	workers := cfg.Pool.Workers
	if workers == nil {
		workers = ea.NewWorkers(par)
		defer workers.Close()
	}
	// The policy runs in this goroutine (owning the engine) and keeps at
	// most par evaluations in flight, so the sends on done never block.
	// Once ctx ends it launches nothing and waits for those in flight.
	done := make(chan *ea.Individual, par)
	dispatched, completed, running := 0, 0, 0
	for completed < budget {
		for ; dispatched < budget && running < par; dispatched++ {
			ind := e.ask(1, 1+completed/cfg.PopSize)[0]
			if !workers.Go(ctx, func() {
				if !ind.Evaluated { // a warm-start member keeps its fitness
					ea.EvaluateIndividual(ctx, ind, cfg.Evaluator, cfg.Pool.Timeout, cfg.Pool.Objectives)
				}
				done <- ind
			}) {
				break
			}
			running++
		}
		if running == 0 {
			return nil, nil, ctx.Err()
		}
		ind := <-done
		running--
		if !ind.Evaluated {
			// Cancelled: no fitness, so it must not enter the population.
			continue
		}
		completed++
		all = append(all, ind)
		e.tell(ea.Population{ind})
		if completed%cfg.PopSize == 0 {
			e.eaCtx.AnnealStd(cfg.AnnealFactor)
		}
	}
	return e.pop, all, nil
}
