package cluster

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/ea"
)

// LocalCluster bundles a scheduler and n workers in one process — the
// single-machine analogue of the paper's batch script that launches the
// Dask scheduler and workers on the Summit batch node, next to the
// process that submits the campaign (§2.2.5).  The caller submits to
// Scheduler in process; only the workers speak the wire protocol, each
// over an in-memory connection, as Dask's LocalCluster connects its
// workers over its inproc transport rather than a socket.
type LocalCluster struct {
	Scheduler *Scheduler
	// Client is the same pointer as Scheduler.  It exists only for the
	// bench/ harness, which reads it by that name.
	Client  *Scheduler
	Workers []*Worker
	cancel  context.CancelFunc
}

// NewLocalCluster starts a scheduler listening on a free loopback port
// and nWorkers in-process workers with the given handler and task
// timeout (0 = none).  No lease is armed and no worker heartbeats.
func NewLocalCluster(nWorkers int, handler Handler, taskTimeout time.Duration) (*LocalCluster, error) {
	return startLocalCluster("127.0.0.1:0", nWorkers, handler, limits{evalCap: taskTimeout})
}

// ListenLocalCluster starts the fleet cmd/serve runs: a scheduler
// listening on addr, so workers in other processes can join the
// in-process ones (of which there may be none) over TCP, armed with the
// paper's limits.  Its leases run out after LeaseTimeout, its in-process
// workers heartbeat every HeartbeatInterval, and their execution cap is
// ea.PaperEvalTimeout.
func ListenLocalCluster(addr string, nWorkers int, handler Handler) (*LocalCluster, error) {
	return startLocalCluster(addr, nWorkers, handler, served)
}

func startLocalCluster(addr string, nWorkers int, handler Handler, lim limits) (*LocalCluster, error) {
	sched, err := NewScheduler(addr)
	if err != nil {
		return nil, err
	}
	sched.TaskTimeout = lim.lease
	ctx, cancel := context.WithCancel(context.Background())
	lc := &LocalCluster{Scheduler: sched, Client: sched, cancel: cancel}
	for i := 0; i < nWorkers; i++ {
		w, err := newWorker(fmt.Sprintf("worker-%d", i), handler, sched.dial)
		if err != nil {
			return nil, errors.Join(err, lc.Close())
		}
		w.TaskTimeout, w.Heartbeat = lim.evalCap, lim.heartbeat
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
// submitted as a task payload and the fitness comes back as a result
// payload from whichever worker ran it (payload.go has the layout; a
// worker answers it with EvalHandler).  Worker-side errors, a non-finite
// gene and a result payload that does not decode surface as evaluation
// errors, which the EA converts to MAXINT fitness (§2.2.4).
type Evaluator struct {
	// Client is the scheduler the genomes are submitted to.
	Client *Scheduler
}

// Evaluate implements ea.Evaluator.
func (ce *Evaluator) Evaluate(ctx context.Context, g ea.Genome) (ea.Fitness, error) {
	payload, err := appendPayload(make([]byte, 0, 1+8*len(g)), genomeKind, g)
	if err != nil {
		return nil, err
	}
	out, err := ce.Client.Submit(ctx, payload)
	if err != nil {
		return nil, err
	}
	return parsePayload(out, fitnessKind)
}

// EvalHandler wraps an ea.Evaluator as a worker Handler, so the same
// fitness code runs locally or behind the scheduler: it decodes the
// genome of the task payload Evaluator submits and answers with the
// fitness as a result payload.  A non-finite objective fails the task.
func EvalHandler(ev ea.Evaluator) Handler {
	return func(ctx context.Context, payload []byte) ([]byte, error) {
		g, err := parsePayload(payload, genomeKind)
		if err != nil {
			return nil, err
		}
		fit, err := ev.Evaluate(ctx, g)
		if err != nil {
			return nil, err
		}
		return appendPayload(make([]byte, 0, 1+8*len(fit)), fitnessKind, fit)
	}
}
