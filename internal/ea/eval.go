package ea

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Evaluator computes the multiobjective fitness of a genome.  Evaluations
// may be expensive (the paper's were two-hour DeePMD trainings), so the
// context carries cancellation and deadlines.
type Evaluator interface {
	Evaluate(ctx context.Context, g Genome) (Fitness, error)
}

// EvaluatorFunc adapts a function to the Evaluator interface.
type EvaluatorFunc func(ctx context.Context, g Genome) (Fitness, error)

// Evaluate implements Evaluator.
func (f EvaluatorFunc) Evaluate(ctx context.Context, g Genome) (Fitness, error) {
	return f(ctx, g)
}

// ErrEvalTimeout marks an evaluation killed by the per-individual time
// limit, the analogue of the paper's two-hour subprocess TimeoutError.
var ErrEvalTimeout = errors.New("ea: evaluation timed out")

// PaperEvalTimeout is the paper's per-evaluation wall limit: a training
// still running after two hours is killed and its individual gets MAXINT
// (§2.2.4).  Every shipped binary that caps an evaluation reads it.
const PaperEvalTimeout = 2 * time.Hour

// clock is the package's single sanctioned wall-clock source, feeding
// only the Runtime telemetry field — which is display/persist metadata
// and never flows into fitness, selection or any campaign artifact.
// Keeping it behind a variable lets tests freeze time.
//
//lint:ignore determinism Runtime is wall-clock telemetry only; it never feeds fitness or selection
var clock = time.Now

// PoolConfig configures the parallel evaluation pool.
type PoolConfig struct {
	// Parallelism is the number of concurrent evaluations, the analogue of
	// the number of Summit nodes running Dask workers (100 in the paper).
	Parallelism int
	// Timeout, if positive, is the per-evaluation wall-clock limit (the
	// paper's limit was two hours).  Evaluations that exceed it are failed.
	Timeout time.Duration
	// Objectives is the fitness dimension, needed to build MAXINT failure
	// fitnesses (2 in the paper: energy and force loss).
	Objectives int
	// Workers, if non-nil, runs the evaluations, perhaps shared with other
	// calls; if nil, a call starts a Workers of Parallelism of its own.
	Workers *Workers
}

// Workers is a bounded set of evaluation goroutines, the fixed Dask
// workers behind LEAP's eval_pool (§2.2.3–2.2.5): at most n start, on
// demand, and each runs function after function until Close.  Callers
// blocked in Go are served in arrival order.  Go must not race Close.
type Workers struct {
	work  chan func()   // unbuffered: a send lands on an idle goroutine
	slots chan struct{} // one token per goroutine started
	wg    sync.WaitGroup
}

// NewWorkers returns a Workers of at most n goroutines (at least one).
func NewWorkers(n int) *Workers {
	return &Workers{work: make(chan func()), slots: make(chan struct{}, max(n, 1))}
}

// Go runs f on an idle goroutine, a new one if fewer than n run, or the
// first to come free; it returns false, and f does not run, if ctx ends.
func (w *Workers) Go(ctx context.Context, f func()) bool {
	if ctx.Err() != nil {
		return false
	}
	select {
	case w.work <- f:
		return true
	default:
	}
	select {
	case w.work <- f:
	case w.slots <- struct{}{}:
		w.wg.Add(1)
		go w.serve(f)
	case <-ctx.Done():
		return false
	}
	return true
}

func (w *Workers) serve(f func()) {
	defer w.wg.Done()
	for ok := true; ok; f, ok = <-w.work {
		f()
	}
}

// Close returns once every goroutine has finished its function and exited.
func (w *Workers) Close() {
	close(w.work)
	w.wg.Wait()
}

// EvalPool pulls n individuals from the stream and evaluates them on
// cfg.Workers, at most Parallelism at once, the analogue of LEAP's
// eval_pool(client=…, size=…); timeout and Runtime start when a worker
// takes the individual.  Failed or timed-out individuals receive
// MaxFitness on every objective rather than an error fitness, per §2.2.4,
// so that downstream non-dominated sorting remains total.  The returned
// slice preserves pull order.
//
// Cancelling ctx aborts the campaign, not the individuals: evaluations
// not yet launched stay unevaluated (Evaluated == false, Err records the
// cancellation) instead of being branded MAXINT failures, and no new
// evaluations are started once ctx is done.  Callers observe the abort
// via ctx.Err(), mirroring how nsga2.Run discards the partial generation.
func EvalPool(ctx context.Context, src Stream, n int, ev Evaluator, cfg PoolConfig) Population {
	par := max(cfg.Parallelism, 1)
	if cfg.Objectives <= 0 {
		cfg.Objectives = 2
	}
	if cfg.Workers == nil {
		cfg.Workers = NewWorkers(par)
		defer cfg.Workers.Close()
	}
	inds := Take(src, n)
	done := make(chan struct{}, par) // one token per finished evaluation
	running := 0
	for _, ind := range inds {
		if running == par {
			<-done
			running--
		}
		if cfg.Workers.Go(ctx, func() {
			EvaluateIndividual(ctx, ind, ev, cfg.Timeout, cfg.Objectives)
			done <- struct{}{}
		}) {
			running++
		} else {
			ind.Err = ctx.Err() // aborted: left unevaluated
		}
	}
	for ; running > 0; running-- {
		<-done
	}
	return inds
}

// EvaluateIndividual runs one evaluation with timeout and panic recovery,
// recording fitness, runtime and error on the individual.  Any failure —
// error return, per-individual timeout, or panic inside the evaluator
// (the paper saw hyperparameter combinations that crashed training
// outright) — yields the MAXINT failure fitness.
//
// Cancellation of the parent ctx (Ctrl-C, campaign abort) is NOT a
// failure of the individual: the individual is left unevaluated with the
// cancellation recorded in Err, so an aborted campaign never fabricates
// MAXINT "timed out" results for work it chose not to finish.
func EvaluateIndividual(ctx context.Context, ind *Individual, ev Evaluator, timeout time.Duration, objectives int) {
	evalCtx := ctx
	var cancel context.CancelFunc
	if timeout > 0 {
		evalCtx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	start := clock()
	fit, err := safeEvaluate(evalCtx, ind.Genome, ev)
	ind.Runtime = clock().Sub(start)

	if err == nil && evalCtx.Err() != nil {
		// The evaluator returned success after its context ended; classify
		// by cause instead of calling every cancellation a timeout.
		err = evalCtx.Err()
	}
	if err != nil {
		if ctx.Err() != nil {
			// Campaign-level abort: propagate, don't record a failure.
			ind.Err = ctx.Err()
			return
		}
		if errors.Is(err, context.DeadlineExceeded) {
			// evalCtx's own deadline: the per-individual limit (the
			// paper's two-hour cap) — a genuine MAXINT failure.
			err = fmt.Errorf("%w: %v", ErrEvalTimeout, err)
		}
		ind.Fitness = FailureFitness(objectives)
		ind.Err = err
	} else {
		ind.Fitness = fit
		ind.Err = nil
	}
	ind.Evaluated = true
}

// safeEvaluate converts evaluator panics into errors so one pathological
// hyperparameter combination cannot take down the whole campaign.
func safeEvaluate(ctx context.Context, g Genome, ev Evaluator) (fit Fitness, err error) {
	defer func() {
		if r := recover(); r != nil {
			fit = nil
			err = fmt.Errorf("ea: evaluation panic: %v", r)
		}
	}()
	return ev.Evaluate(ctx, g)
}
