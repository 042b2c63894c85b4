// Command cluster runs one evaluation worker, mirroring a Dask worker of
// the paper's Summit deployment (§2.2.5): it dials the scheduler that a
// campaign process hosts — `serve -workers-listen ADDR` — and evaluates
// the genomes it is assigned with the Summit surrogate.  A campaign
// without the HTTP service is `hpo`.
//
// Usage:
//
//	cluster [-addr 127.0.0.1:7077] [-name w0] [-seed 2023] [-task-timeout 2h] [-heartbeat 15s] [-max-reconnects 0]
//
// The worker holds exactly one TCP connection to the scheduler, as each
// Dask worker did, framed with the length-prefixed binary wire protocol
// (internal/cluster/wire) from its first byte.  It re-dials a lost
// scheduler with exponential backoff and renews its task's lease with
// heartbeats while a training runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"repro/internal/cluster"
	"repro/internal/surrogate"
)

func main() {
	log.SetFlags(0)
	addr := flag.String("addr", "127.0.0.1:7077", "scheduler address (serve's -workers-listen)")
	name := flag.String("name", "worker", "worker name")
	seed := flag.Int64("seed", 2023, "surrogate seed")
	taskTimeout := flag.Duration("task-timeout", 2*time.Hour, "per-task execution cap (the paper's two-hour limit)")
	heartbeat := flag.Duration("heartbeat", 15*time.Second, "lease-renewal interval while executing; 0 disables")
	maxReconnects := flag.Int("max-reconnects", 0, "consecutive failed re-dials before giving up; 0 retries forever")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	ev := surrogate.NewEvaluator(surrogate.Config{Seed: *seed})
	w, err := cluster.NewWorker(*addr, *name, cluster.EvalHandler(ev))
	if err != nil {
		log.Fatalf("worker: %v", err)
	}
	w.TaskTimeout = *taskTimeout
	w.Heartbeat = *heartbeat
	w.MaxReconnects = *maxReconnects
	w.Logf = log.Printf
	fmt.Printf("worker %q connected to %s\n", *name, *addr)
	if err := w.Run(ctx); err != nil {
		log.Fatalf("worker exited: %v", err)
	}
}
