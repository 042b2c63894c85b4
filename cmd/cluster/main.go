// Command cluster runs the distributed-evaluation components standalone,
// mirroring the paper's Dask deployment on the Summit batch node
// (§2.2.5): a scheduler, any number of workers (each evaluating genomes
// with the Summit surrogate), and a driver mode that submits a whole
// NSGA-II campaign through the scheduler.
//
// Usage:
//
//	cluster -mode scheduler [-addr 127.0.0.1:7077] [-lease 10m] [-stats 30s] [-events]
//	cluster -mode worker   [-addr 127.0.0.1:7077] [-name w0] [-seed 2023] [-task-timeout 2h] [-heartbeat 15s]
//	cluster -mode drive     [-addr 127.0.0.1:7077] [-runs 1] [-pop 20] [-gens 3]
//
// Every worker and driver holds exactly one TCP connection to the
// scheduler, as each Dask worker did, framed with the length-prefixed
// binary wire protocol (internal/cluster/wire) from its first byte.  The
// scheduler's pending queue is one FIFO of 4096 tasks; a full queue
// blocks submitters.
//
// The scheduler prints its Stats line (pending-queue length included)
// every -stats interval and, on Unix, dumps aggregate, wire, and
// per-worker counters on SIGUSR1.  Workers reconnect to a bounced scheduler with exponential
// backoff and renew their task leases with heartbeats while a training
// runs.
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
	"repro/internal/ea"
	"repro/internal/hpo"
	"repro/internal/surrogate"
)

func main() {
	log.SetFlags(0)
	mode := flag.String("mode", "", "scheduler, worker, or drive")
	addr := flag.String("addr", "127.0.0.1:7077", "scheduler address")
	name := flag.String("name", "worker", "worker name")
	seed := flag.Int64("seed", 2023, "surrogate / campaign seed")
	runs := flag.Int("runs", 1, "drive: independent EA runs")
	pop := flag.Int("pop", 20, "drive: population size")
	gens := flag.Int("gens", 3, "drive: offspring generations")
	lease := flag.Duration("lease", 0, "scheduler: per-task lease; 0 disables the liveness backstop")
	statsEvery := flag.Duration("stats", 30*time.Second, "scheduler: periodic stats line interval; 0 disables")
	events := flag.Bool("events", false, "scheduler: log every lifecycle event")
	taskTimeout := flag.Duration("task-timeout", 2*time.Hour, "worker: per-task execution cap (the paper's two-hour limit)")
	heartbeat := flag.Duration("heartbeat", 15*time.Second, "worker: lease-renewal interval while executing; 0 disables")
	maxReconnects := flag.Int("max-reconnects", 0, "worker: consecutive failed re-dials before giving up; 0 retries forever")
	noMemo := flag.Bool("no-memo", false, "drive: disable genome-keyed fitness memoization")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	switch *mode {
	case "scheduler":
		sched, err := cluster.NewScheduler(*addr)
		if err != nil {
			log.Fatalf("scheduler: %v", err)
		}
		sched.Logf = log.Printf
		sched.TaskTimeout = *lease
		if *events {
			sched.OnEvent = func(e cluster.Event) { log.Printf("event: %s", e) }
		}
		fmt.Printf("scheduler listening on %s (Ctrl-C to stop)\n", sched.Addr())
		dump := func() {
			log.Printf("stats: %s", sched)
			log.Printf("%s", sched.Wire())
			for _, ws := range sched.WorkerStats() {
				log.Printf("stats: %s", ws)
			}
		}
		notifyDumpSignal(ctx, dump)
		if *statsEvery > 0 {
			go func() {
				ticker := time.NewTicker(*statsEvery)
				defer ticker.Stop()
				for {
					select {
					case <-ticker.C:
						dump()
					case <-ctx.Done():
						return
					}
				}
			}()
		}
		<-ctx.Done()
		dump()
		fmt.Printf("final stats: %s\n", sched)
		sched.Close()

	case "worker":
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

	case "drive":
		client, err := cluster.NewClient(*addr)
		if err != nil {
			log.Fatalf("client: %v", err)
		}
		client.Logf = log.Printf
		defer client.Close()
		// Memoize by genome so exact-duplicate individuals never travel to
		// a worker at all — a cluster round trip plus a full training
		// saved per duplicate.
		var evaluator ea.Evaluator = &cluster.Evaluator{Client: client}
		var memo *ea.MemoEvaluator
		if !*noMemo {
			memo = ea.NewMemoEvaluator(evaluator)
			evaluator = memo
		}
		res, err := hpo.RunCampaign(ctx, hpo.CampaignConfig{
			Runs: *runs, PopSize: *pop, Generations: *gens,
			Evaluator:   evaluator,
			Parallelism: *pop, AnnealFactor: 0.85, BaseSeed: *seed,
		})
		if err != nil {
			log.Fatalf("campaign: %v", err)
		}
		fmt.Printf("campaign done: %d evaluations, %d failures, frontier:\n",
			res.TotalEvaluations(), res.TotalFailures())
		if memo != nil {
			st := memo.Stats()
			fmt.Printf("memo cache: %d hits, %d misses, %d entries\n",
				st.Hits, st.Misses, st.Entries)
		}
		for i, ind := range res.ParetoFront() {
			h, _ := hpo.Decode(ind.Genome)
			fmt.Printf("  %2d energy=%.4f force=%.4f  %s\n", i+1, ind.Fitness[0], ind.Fitness[1], h)
		}

	default:
		log.Fatal("cluster: -mode must be scheduler, worker, or drive")
	}
}
