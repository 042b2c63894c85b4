package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/ea"
)

// LocalCluster bundles a scheduler, n workers and a client on the
// loopback interface — the single-machine analogue of the paper's batch
// script that launches the Dask scheduler, workers and client on the
// Summit batch node (§2.2.5).
type LocalCluster struct {
	Scheduler *Scheduler
	Workers   []*Worker
	Client    *Client
	cancel    context.CancelFunc
}

// NewLocalCluster starts everything on 127.0.0.1 with the given handler
// and per-worker task timeout (0 = none).  Workers are wired with a fast
// reconnect schedule, so a locally bounced scheduler is reacquired in
// tens of milliseconds rather than the production default's seconds.
func NewLocalCluster(nWorkers int, handler Handler, taskTimeout time.Duration) (*LocalCluster, error) {
	sched, err := NewScheduler("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	lc := &LocalCluster{Scheduler: sched, cancel: cancel}
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
	client, err := NewClient(sched.Addr())
	if err != nil {
		return nil, errors.Join(err, lc.Close())
	}
	lc.Client = client
	return lc, nil
}

// Close tears the cluster down and reports every teardown failure; a
// deferred Close remains the best-effort idiom for callers that only
// need the shutdown, not its error.
func (lc *LocalCluster) Close() error {
	lc.cancel()
	var errs []error
	if lc.Client != nil {
		errs = append(errs, lc.Client.Close())
	}
	for _, w := range lc.Workers {
		errs = append(errs, w.Close())
	}
	errs = append(errs, lc.Scheduler.Close())
	return errors.Join(errs...)
}

// Evaluator adapts a cluster client into an ea.Evaluator: each genome is
// shipped to the scheduler as a {"genome":[…]} task and the fitness comes
// back as {"fitness":[…]} from whichever worker ran it.  Worker-side
// errors surface as evaluation errors, which the EA converts to MAXINT
// fitness (§2.2.4).
type Evaluator struct {
	Client *Client
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
