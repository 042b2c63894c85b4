// Command serve runs the campaign service: a long-lived, multi-tenant
// HTTP control plane over the NSGA-II hyperparameter-optimization stack.
// It is the always-on promotion of the one-shot `hpo` and `cluster
// -mode drive` binaries — clients create campaigns over JSON, stream
// per-generation events, and fetch frontiers, while every campaign
// shares one worker fleet and one genome-keyed memo cache.
//
// Usage:
//
//	serve [-addr 127.0.0.1:8080] [-checkpoint-dir DIR]
//	      [-backend local|remote] [-workers 4] [-scheduler-addr HOST:PORT]
//	      [-seed 2023] [-lease 10m] [-no-memo]
//	      [-max-concurrent 4] [-max-active-per-tenant 2]
//	      [-max-campaigns-per-tenant 16] [-max-inflight-per-tenant 64]
//	      [-drain-timeout 30s]
//
// Every worker and the client hold one TCP connection each to the
// scheduler, whose pending queue is one FIFO of 4096 tasks that blocks
// submitters when it fills.
//
// The local backend starts an in-process scheduler plus -workers
// surrogate workers (the single-machine analogue of the paper's Summit
// deployment); the remote backend connects to an already-running
// `cluster -mode scheduler` fleet at -scheduler-addr.
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
	backend := flag.String("backend", "local", "evaluation backend: local (in-process fleet) or remote (existing scheduler)")
	workers := flag.Int("workers", 4, "local backend: in-process surrogate workers")
	schedulerAddr := flag.String("scheduler-addr", "127.0.0.1:7077", "remote backend: scheduler address")
	seed := flag.Int64("seed", 2023, "local backend: surrogate model seed")
	lease := flag.Duration("lease", 10*time.Minute, "local backend: per-task lease; 0 disables")
	noMemo := flag.Bool("no-memo", false, "disable the shared genome-keyed memo cache")
	checkpointDir := flag.String("checkpoint-dir", "", "directory for campaign checkpoints; empty disables persistence")
	maxConcurrent := flag.Int("max-concurrent", 4, "campaigns running at once, all tenants combined")
	maxActive := flag.Int("max-active-per-tenant", 2, "one tenant's campaigns running at once")
	maxCampaigns := flag.Int("max-campaigns-per-tenant", 16, "one tenant's queued+running campaigns")
	maxInflight := flag.Int("max-inflight-per-tenant", 64, "one tenant's concurrent evaluations")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight legs to checkpoint on shutdown")
	flag.Parse()

	if err := run(*addr, *backend, *workers, *schedulerAddr, *seed, *lease, *noMemo,
		*checkpointDir, *maxConcurrent, *maxActive, *maxCampaigns, *maxInflight, *drainTimeout); err != nil {
		log.Fatalf("serve: %v", err)
	}
}

func run(addr, backend string, workers int, schedulerAddr string, seed int64,
	lease time.Duration, noMemo bool, checkpointDir string,
	maxConcurrent, maxActive, maxCampaigns, maxInflight int, drainTimeout time.Duration) error {

	var events cluster.EventCounters
	cfg := service.Config{
		DisableMemo:           noMemo,
		CheckpointDir:         checkpointDir,
		MaxConcurrent:         maxConcurrent,
		MaxActivePerTenant:    maxActive,
		MaxCampaignsPerTenant: maxCampaigns,
		MaxInFlightPerTenant:  maxInflight,
		Logf:                  log.Printf,
		SchedulerEvents:       &events,
	}

	switch backend {
	case "local":
		lc, err := cluster.NewLocalCluster(workers, cluster.EvalHandler(surrogate.NewEvaluator(surrogate.Config{Seed: seed})), lease)
		if err != nil {
			return fmt.Errorf("local fleet: %w", err)
		}
		defer func() {
			if err := lc.Close(); err != nil {
				log.Printf("fleet_close err=%v", err)
			}
		}()
		lc.Scheduler.OnEvent = events.Record
		cfg.Evaluator = &cluster.Evaluator{Client: lc.Client}
		cfg.SchedulerStats = func() (cluster.Stats, []cluster.WorkerStats) {
			return lc.Scheduler.Stats(), lc.Scheduler.WorkerStats()
		}
		cfg.SchedulerWire = lc.Scheduler.Wire
	case "remote":
		client, err := cluster.NewClient(schedulerAddr)
		if err != nil {
			return fmt.Errorf("connecting scheduler %s: %w", schedulerAddr, err)
		}
		defer func() {
			if err := client.Close(); err != nil {
				log.Printf("client_close err=%v", err)
			}
		}()
		client.Logf = log.Printf
		cfg.Evaluator = &cluster.Evaluator{Client: client}
		cfg.SchedulerWire = client.Wire
	default:
		return fmt.Errorf("unknown backend %q (want local or remote)", backend)
	}

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
	fmt.Printf("serve listening on %s (backend=%s)\n", ln.Addr(), backend)

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
