// Command serve runs the campaign service: a long-lived, multi-tenant
// HTTP control plane over the NSGA-II hyperparameter-optimization stack.
// It is the always-on promotion of the one-shot `hpo` binary — clients
// create campaigns over JSON, follow per-generation events by long-poll,
// and fetch frontiers, while every campaign shares one worker fleet and
// one genome-keyed memo cache.
//
// Usage:
//
//	serve [-addr 127.0.0.1:8080] [-checkpoint-dir DIR]
//	      [-workers 4] [-workers-listen 127.0.0.1:0]
//	      [-seed 2023]
//	      [-max-concurrent 4] [-max-active-per-tenant 2]
//	      [-max-campaigns-per-tenant 16] [-max-inflight-per-tenant 64]
//	      [-drain-timeout 30s]
//
// The service hosts the scheduler, as the paper's Dask client shared the
// Summit batch node with its scheduler (§2.2.5): campaigns submit their
// evaluations to it in process, and its pending queue is one FIFO of
// 4096 tasks that blocks submitters when it fills.  It starts -workers
// in-process surrogate workers (0 is allowed) and accepts more on
// -workers-listen, where `cluster -addr ADDR` workers from other
// processes or hosts join the same fleet.  Every worker holds one
// connection to the scheduler: in-memory for an in-process worker, TCP
// for one that joined on -workers-listen.
//
// The fleet's time limits are the declared ones, not flags: a worker of
// either kind that holds a task for cluster.LeaseTimeout without a
// heartbeat or a result loses it to another worker (§2.2.4), and the
// in-process workers heartbeat and cap each task at ea.PaperEvalTimeout.
// A worker's cap is the only one on an evaluation, as the paper's ran
// inside the Dask worker's task: its clock starts with the training, and
// only the worker can stop one.  A campaign spec carries no timeout.
//
// On SIGTERM or SIGINT the service drains: admission stops, every
// running campaign's in-flight generation is cancelled, and every
// campaign is checkpointed to -checkpoint-dir.  A restarted serve with
// the same -checkpoint-dir resumes them with zero completed generations
// lost — and, because campaign execution is restart-invariant, with a
// final frontier byte-identical to an uninterrupted run's.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
	"repro/internal/surrogate"
)

func main() {
	log.SetFlags(0)
	addr := flag.String("addr", "127.0.0.1:8080", "HTTP listen address")
	workers := flag.Int("workers", 4, "in-process surrogate workers; 0 leaves the fleet to workers that dial -workers-listen")
	workersListen := flag.String("workers-listen", "127.0.0.1:0", "address the scheduler accepts workers on")
	seed := flag.Int64("seed", 2023, "surrogate model seed of the in-process workers")
	checkpointDir := flag.String("checkpoint-dir", "", "directory for campaign checkpoints; empty disables persistence")
	maxConcurrent := flag.Int("max-concurrent", 4, "campaigns running at once, all tenants combined")
	maxActive := flag.Int("max-active-per-tenant", 2, "one tenant's campaigns running at once")
	maxCampaigns := flag.Int("max-campaigns-per-tenant", 16, "one tenant's queued+running campaigns")
	maxInflight := flag.Int("max-inflight-per-tenant", 64, "one tenant's concurrent evaluations")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight generations to checkpoint on shutdown")
	flag.Parse()

	if err := run(*addr, *workers, *workersListen, *seed, *checkpointDir,
		*maxConcurrent, *maxActive, *maxCampaigns, *maxInflight, *drainTimeout); err != nil {
		log.Fatalf("serve: %v", err)
	}
}

func run(addr string, workers int, workersListen string, seed int64, checkpointDir string,
	maxConcurrent, maxActive, maxCampaigns, maxInflight int, drainTimeout time.Duration) error {

	cfg := service.Config{
		CheckpointDir:         checkpointDir,
		MaxConcurrent:         maxConcurrent,
		MaxActivePerTenant:    maxActive,
		MaxCampaignsPerTenant: maxCampaigns,
		MaxInFlightPerTenant:  maxInflight,
		Logf:                  log.Printf,
	}

	lc, err := cluster.ListenLocalCluster(workersListen, workers, cluster.EvalHandler(surrogate.NewEvaluator(surrogate.Config{Seed: seed})))
	if err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	defer func() {
		if err := lc.Close(); err != nil {
			log.Printf("fleet_close err=%v", err)
		}
	}()
	// Campaigns submit to the scheduler, and /metrics reads its counters.
	cfg.Evaluator = &cluster.Evaluator{Client: lc.Scheduler}
	cfg.Scheduler = lc.Scheduler

	svc, err := service.New(cfg)
	if err != nil {
		return err
	}
	if restored, err := svc.Restore(); err != nil {
		return fmt.Errorf("restoring checkpoints: %w", err)
	} else if restored > 0 {
		log.Printf("restored_campaigns n=%d", restored)
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: svc.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	// The "listening" line is the readiness handshake scripts wait for.
	fmt.Printf("serve listening on %s (workers on %s)\n", ln.Addr(), lc.Scheduler.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		return fmt.Errorf("http server: %w", err)
	case <-ctx.Done():
	}
	stop()

	log.Printf("shutdown_begin drain_timeout=%s", drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := svc.Drain(drainCtx); err != nil {
		log.Printf("drain_incomplete err=%v", err)
	}
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelHTTP()
	if err := srv.Shutdown(httpCtx); err != nil {
		if closeErr := srv.Close(); closeErr != nil && !errors.Is(closeErr, http.ErrServerClosed) {
			log.Printf("http_close err=%v", closeErr)
		}
	}
	log.Printf("shutdown_done")
	return nil
}
