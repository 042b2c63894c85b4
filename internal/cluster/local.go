package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/ea"
)

// LocalCluster bundles a scheduler and n workers on the loopback
// interface — the single-machine analogue of the paper's batch script
// that launches the Dask scheduler and workers on the Summit batch node,
// next to the process that submits the campaign (§2.2.5).  The caller
// submits to Scheduler in process; only the workers speak the wire
// protocol.
type LocalCluster struct {
	Scheduler *Scheduler
	// Client is the same pointer as Scheduler.  It exists only for the
	// bench/ harness, which reads it by that name.
	Client  *Scheduler
	Workers []*Worker
	cancel  context.CancelFunc
}

// NewLocalCluster starts a scheduler on a free loopback port and
// nWorkers workers with the given handler and task timeout (0 = none).
func NewLocalCluster(nWorkers int, handler Handler, taskTimeout time.Duration) (*LocalCluster, error) {
	return ListenLocalCluster("127.0.0.1:0", nWorkers, handler, taskTimeout)
}

// ListenLocalCluster is NewLocalCluster with the scheduler listening on
// addr, so workers in other processes can join the in-process ones (of
// which there may be none).  The in-process workers are wired with a fast
// reconnect schedule, so a locally bounced scheduler is reacquired in
// tens of milliseconds rather than the production default's seconds.
func ListenLocalCluster(addr string, nWorkers int, handler Handler, taskTimeout time.Duration) (*LocalCluster, error) {
	sched, err := NewScheduler(addr)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	lc := &LocalCluster{Scheduler: sched, Client: sched, cancel: cancel}
	for i := 0; i < nWorkers; i++ {
		w, err := NewWorker(sched.Addr(), fmt.Sprintf("worker-%d", i), handler)
		if err != nil {
			return nil, errors.Join(err, lc.Close())
		}
		w.TaskTimeout = taskTimeout
		w.ReconnectInitial = 10 * time.Millisecond
		w.ReconnectMax = 250 * time.Millisecond
		lc.Workers = append(lc.Workers, w)
		go func() { _ = w.Run(ctx) }()
	}
	return lc, nil
}

// Close tears the cluster down and reports every teardown failure; a
// deferred Close remains the best-effort idiom for callers that only
// need the shutdown, not its error.
func (lc *LocalCluster) Close() error {
	lc.cancel()
	var errs []error
	for _, w := range lc.Workers {
		errs = append(errs, w.Close())
	}
	errs = append(errs, lc.Scheduler.Close())
	return errors.Join(errs...)
}

// Evaluator adapts a scheduler into an ea.Evaluator: each genome is
// submitted as a {"genome":[…]} task and the fitness comes back as
// {"fitness":[…]} from whichever worker ran it.  Worker-side errors
// surface as evaluation errors, which the EA converts to MAXINT fitness
// (§2.2.4).
type Evaluator struct {
	// Client is the scheduler the genomes are submitted to.
	Client *Scheduler
}

// Evaluate implements ea.Evaluator.
func (ce *Evaluator) Evaluate(ctx context.Context, g ea.Genome) (ea.Fitness, error) {
	payload, err := appendPayload(make([]byte, 0, 16+24*len(g)), genomeKey, g)
	if err != nil {
		return nil, err
	}
	out, err := ce.Client.Submit(ctx, payload)
	if err != nil {
		return nil, err
	}
	fit, err := parsePayload(out, fitnessKey)
	if err != nil {
		return nil, fmt.Errorf("cluster: bad fitness payload: %w", err)
	}
	return fit, nil
}

// EvalHandler wraps an ea.Evaluator as a worker Handler, so the same
// fitness code runs locally or behind the scheduler.
func EvalHandler(ev ea.Evaluator) Handler {
	return func(ctx context.Context, payload json.RawMessage) (json.RawMessage, error) {
		g, err := parsePayload(payload, genomeKey)
		if err != nil {
			return nil, fmt.Errorf("cluster: bad genome payload: %w", err)
		}
		fit, err := ev.Evaluate(ctx, g)
		if err != nil {
			return nil, err
		}
		return appendPayload(make([]byte, 0, 16+24*len(fit)), fitnessKey, fit)
	}
}
