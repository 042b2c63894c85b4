// Command cluster runs one evaluation worker, mirroring a Dask worker of
// the paper's Summit deployment (§2.2.5): it dials the scheduler that a
// campaign process hosts — `serve -workers-listen ADDR` — and evaluates
// the genomes it is assigned with the Summit surrogate.  A campaign
// without the HTTP service is `hpo`.
//
// Usage:
//
//	cluster [-addr 127.0.0.1:7077] [-name w0] [-seed 2023] [-max-reconnects 0]
//
// The worker holds exactly one TCP connection to the scheduler, as each
// Dask worker did, framed with the length-prefixed binary wire protocol
// (internal/cluster/wire) from its first byte.  It re-dials a lost
// scheduler with exponential backoff.  Its time limits are the ones
// serve's scheduler is armed with: it caps each task at the paper's two
// hours (ea.PaperEvalTimeout) and, while a task runs, renews the task's
// lease every cluster.HeartbeatInterval.  A worker silent for a whole
// lease (a process stopped and later resumed, say) is taken for hung:
// the scheduler drops its connection and gives its task to another
// worker, and once the worker resumes it re-dials through the same
// backoff and registers afresh.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"

	"repro/internal/cluster"
	"repro/internal/ea"
	"repro/internal/surrogate"
)

func main() {
	log.SetFlags(0)
	addr := flag.String("addr", "127.0.0.1:7077", "scheduler address (serve's -workers-listen)")
	name := flag.String("name", "worker", "worker name")
	seed := flag.Int64("seed", 2023, "surrogate seed")
	maxReconnects := flag.Int("max-reconnects", 0, "consecutive failed re-dials before giving up; 0 retries forever")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	ev := surrogate.NewEvaluator(surrogate.Config{Seed: *seed})
	w, err := cluster.NewWorker(*addr, *name, cluster.EvalHandler(ev))
	if err != nil {
		log.Fatalf("worker: %v", err)
	}
	w.TaskTimeout = ea.PaperEvalTimeout
	w.Heartbeat = cluster.HeartbeatInterval
	w.MaxReconnects = *maxReconnects
	w.Logf = log.Printf
	fmt.Printf("worker %q connected to %s\n", *name, *addr)
	if err := w.Run(ctx); err != nil {
		log.Fatalf("worker exited: %v", err)
	}
}
