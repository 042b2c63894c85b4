// Package service is the long-running, multi-tenant HPO control plane:
// the promotion of the one-shot cmd/hpo binary into an always-on
// campaign service, the operational pattern behind the paper's chained
// 12-hour Summit submissions (§2.2.5) run as a product instead of a
// batch script.
//
// Clients create campaigns over an HTTP/JSON API, follow per-generation
// events by long-poll (?after=<seq>&wait_ms=<ms>), and fetch frontiers
// and full campaign records.  Every campaign shares one elastic worker
// fleet through the configured evaluator — typically the in-process
// lease scheduler (cluster.Evaluator), wrapped in the shared genome-keyed
// memo cache — while keeping its own RNG stream, EA context and event
// ring.  The fleet's workers hold the one time limit on an evaluation
// (their TaskTimeout, the paper's two hours); the service arms none.
//
// Execution is *laned*.  Every run of a campaign is a lane, and a lane
// is one engine run: hpo.ContinueRun with seed BaseSeed + run, whose
// observer checkpoints and then publishes each generation it evaluates,
// so a served campaign is the campaign hpo.RunCampaign computes for its
// spec.  Restart invariance comes by replay: a restored lane hands its
// run's checkpointed records to hpo.ContinueRun, which asks the search
// for each of them again and checks genomes and survivors against the
// log, so RNG position, σ and population come back by construction and
// a bounce loses at most each run's in-flight generation; a log the
// replay refuses fails the campaign, naming run, generation and
// position.  The runs never exchange anything, so no lane waits for
// another: one run's stragglers overlap with the other runs'
// evaluations instead of idling the fleet at a barrier five times per
// generation.  A campaign has up to runs × parallelism evaluations in
// flight, on its tenant's MaxInFlightPerTenant evaluation goroutines,
// which the tenant's lanes take in turn, and which it holds only while
// it has a campaign running.
//
// The campaign is as far as its slowest run: gens_done is the minimum
// over runs, and each time it advances the service emits one generation
// event whose numbers count records up to that generation only — gens+1
// events per campaign, ascending, the same bytes however the lanes
// interleaved.
//
// A checkpoint is one append-only file per campaign (checkpoint.go has
// the layout): a header line written whole before the campaign is
// registered, then one line per (run, generation), appended by the lane
// that produced it, and one line per state change.  Nothing is ever
// rewritten.  Two rules order it against what clients see — record
// before publish, state line before state — so a generation event or a
// terminal state is never ahead of the bytes that back it.  Runs may be
// ahead of gens_done inside a checkpoint, and each lane replays its own
// records on Restore; a final line without its newline is a write a
// crash tore, dropped (and truncated away) on Restore.
package service

import (
	"context"
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/ea"
	"repro/internal/uuid"
)

// now is the package's single sanctioned wall-clock source; it feeds
// event timestamps and log lines — operational telemetry that never
// reaches campaign results.  A variable so tests can freeze it.
//
//lint:ignore determinism event/log timestamps are ops telemetry only; campaign results never read the clock
var now = time.Now

// eventBuffer is every campaign's event-ring capacity.
const eventBuffer = 256

// Config parameterizes a Service.
type Config struct {
	// Evaluator is the shared backend that scores genomes — a
	// cluster.Evaluator in front of the lease scheduler in production, a
	// surrogate in tests.  It must be safe for concurrent use.
	Evaluator ea.Evaluator
	// DisableMemo turns off the shared genome-keyed memo cache.
	DisableMemo bool
	// CheckpointDir, when non-empty, persists every campaign (spec, then
	// every generation of every run as its lane completes it); Restore
	// resumes them.
	CheckpointDir string
	// MaxConcurrent caps campaigns running at once (default 4).
	MaxConcurrent int
	// MaxActivePerTenant caps one tenant's running campaigns (default 2).
	MaxActivePerTenant int
	// MaxCampaignsPerTenant caps one tenant's queued+running campaigns;
	// creation beyond it is rejected with 429 (default 16).
	MaxCampaignsPerTenant int
	// MaxInFlightPerTenant caps one tenant's concurrent evaluations against
	// the shared fleet (default 64): its running campaigns share this many
	// evaluation goroutines.  It is what bounds a campaign's lanes: runs ×
	// parallelism evaluations want to be in flight, and this many are.
	MaxInFlightPerTenant int
	// Logf, if non-nil, receives structured key=value log lines.
	Logf func(format string, args ...interface{})
	// Scheduler, if non-nil, is the lease scheduler behind Evaluator;
	// /metrics reads its task, worker, wire and lifecycle counters.
	Scheduler *cluster.Scheduler
}

func (cfg Config) withDefaults() Config {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 4
	}
	if cfg.MaxActivePerTenant <= 0 {
		cfg.MaxActivePerTenant = 2
	}
	if cfg.MaxCampaignsPerTenant <= 0 {
		cfg.MaxCampaignsPerTenant = 16
	}
	if cfg.MaxInFlightPerTenant <= 0 {
		cfg.MaxInFlightPerTenant = 64
	}
	return cfg
}

// tenant is one client namespace sharing the fleet.
type tenant struct {
	name      string
	queue     []*Campaign // admission FIFO
	active    int         // campaigns currently running
	total     int         // queued + running (quota basis)
	lastAdmit int64       // admitSeq of this tenant's latest admission
	workers   *ea.Workers // the in-flight quota; nil while active == 0
}

// Service owns the campaign registry, the admission loop and the shared
// evaluator chain.  Lock order: Service.mu before Campaign.mu; never the
// reverse.
type Service struct {
	cfg        Config
	memo       *ea.MemoEvaluator
	eval       ea.Evaluator // shared chain: memo? → counting → backend
	evalsTotal atomic.Int64 // evaluations dispatched to the backend

	ckptAppends int64 // atomic: checkpoint writes (a header or one appended line)
	ckptBytes   int64 // atomic: bytes those writes put on disk

	mu          sync.Mutex
	campaigns   map[string]*Campaign
	order       []string // campaign IDs in creation order
	tenants     map[string]*tenant
	tenantOrder []string // sorted tenant names: the fair-admission universe
	active      int      // campaigns running now
	admitSeq    int64    // admission counter (fairness-observable)
	draining    bool
	wg          sync.WaitGroup
}

// New builds a Service.  cfg.Evaluator is required.
func New(cfg Config) (*Service, error) {
	if cfg.Evaluator == nil {
		return nil, fmt.Errorf("service: Config.Evaluator is required")
	}
	cfg = cfg.withDefaults()
	if cfg.CheckpointDir != "" {
		if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("service: checkpoint dir: %w", err)
		}
	}
	s := &Service{
		cfg:       cfg,
		campaigns: make(map[string]*Campaign),
		tenants:   make(map[string]*tenant),
	}
	s.eval = ea.EvaluatorFunc(func(ctx context.Context, g ea.Genome) (ea.Fitness, error) {
		s.evalsTotal.Add(1) // memo hits never get here
		return cfg.Evaluator.Evaluate(ctx, g)
	})
	if !cfg.DisableMemo {
		s.memo = ea.NewMemoEvaluator(s.eval)
		s.eval = s.memo
	}
	return s, nil
}

// tenantLocked returns (creating if needed) the tenant record.  Caller
// holds s.mu.
func (s *Service) tenantLocked(name string) *tenant {
	if t, ok := s.tenants[name]; ok {
		return t
	}
	t := &tenant{name: name}
	s.tenants[name] = t
	s.tenantOrder = slices.Insert(s.tenantOrder, sort.SearchStrings(s.tenantOrder, name), name)
	return t
}

// Create registers a campaign and queues it for admission.  It is the
// programmatic form of POST /v1/campaigns.  With a checkpoint directory,
// the campaign's file is written first — the quota slot is held while it
// is, and given back if it fails — so a campaign that is admitted has a
// header every later append lands behind.
func (s *Service) Create(spec Spec) (*Campaign, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	c := &Campaign{
		ID:      uuid.New().String(),
		Tenant:  spec.Tenant,
		Spec:    spec,
		Created: now(),
		ring:    NewRing(eventBuffer),
		state:   StateQueued,
	}
	if c.Spec.Name == "" {
		c.Spec.Name = c.ID[:8]
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, errDraining
	}
	t := s.tenantLocked(spec.Tenant)
	if t.total >= s.cfg.MaxCampaignsPerTenant {
		s.mu.Unlock()
		return nil, quotaError{tenant: spec.Tenant, limit: s.cfg.MaxCampaignsPerTenant}
	}
	t.total++
	s.mu.Unlock()

	if err := s.createCheckpoint(c); err != nil {
		s.mu.Lock()
		t.total--
		s.mu.Unlock()
		s.logf("checkpoint_error", "id", c.ID, "err", err)
		return nil, fmt.Errorf("%w: %v", errCheckpoint, err)
	}

	s.mu.Lock()
	t.queue = append(t.queue, c)
	s.campaigns[c.ID] = c
	s.order = append(s.order, c.ID)
	s.mu.Unlock()

	c.emit(Event{Type: "created", Detail: spec.Name})
	s.logf("campaign_created", "id", c.ID, "tenant", c.Tenant, "name", c.Spec.Name,
		"runs", c.Spec.Runs, "pop", c.Spec.PopSize, "gens", c.Spec.gens())

	s.mu.Lock()
	s.dispatchLocked()
	s.mu.Unlock()
	return c, nil
}

// dispatchLocked admits queued campaigns while capacity remains,
// round-robin across tenants: each slot goes to the least-recently
// admitted tenant with eligible work (ties broken by name), so one
// chatty tenant cannot starve the rest, and a tenant that appears
// mid-stream slots in immediately rather than waiting a full cycle.
// Caller holds s.mu.
func (s *Service) dispatchLocked() {
	for s.active < s.cfg.MaxConcurrent && !s.draining {
		var best *tenant
		for _, name := range s.tenantOrder { // ascending name = stable tiebreak
			t := s.tenants[name]
			if len(t.queue) == 0 || t.active >= s.cfg.MaxActivePerTenant {
				continue
			}
			if best == nil || t.lastAdmit < best.lastAdmit {
				best = t
			}
		}
		if best == nil {
			return
		}
		c := best.queue[0]
		best.queue = best.queue[1:]
		if best.workers == nil {
			best.workers = ea.NewWorkers(s.cfg.MaxInFlightPerTenant)
		}
		best.active++
		s.active++
		s.admitSeq++
		best.lastAdmit = s.admitSeq
		ctx, cancel := context.WithCancel(context.Background())
		c.mu.Lock()
		c.state = StateRunning
		c.cancel = cancel
		c.admitSeq = s.admitSeq
		c.mu.Unlock()
		s.wg.Add(1)
		go s.run(ctx, c, best, best.workers)
	}
}

// release returns a finished campaign's capacity and re-dispatches.  A
// tenant left with no running campaign closes its workers, which Drain
// waits for: run leaves s.wg after release returns.
func (s *Service) release(c *Campaign, t *tenant) {
	s.mu.Lock()
	s.active--
	t.active--
	if c.State().Terminal() {
		t.total--
	}
	s.dispatchLocked()
	var idle *ea.Workers
	if t.active == 0 {
		idle, t.workers = t.workers, nil
	}
	s.mu.Unlock()
	if idle != nil {
		idle.Close()
	}
}

// Campaign looks a campaign up by ID.
func (s *Service) Campaign(id string) (*Campaign, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.campaigns[id]
	return c, ok
}

// Campaigns returns all campaigns in creation order, optionally filtered
// by tenant.
func (s *Service) Campaigns(tenantFilter string) []*Campaign {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Campaign, 0, len(s.order))
	for _, id := range s.order {
		c := s.campaigns[id]
		if tenantFilter != "" && c.Tenant != tenantFilter {
			continue
		}
		out = append(out, c)
	}
	return out
}

// Cancel stops a campaign: a queued one is removed from its tenant's
// admission queue; a running one has its context cancelled and finishes
// as cancelled once every lane's in-flight generation has aborted.
func (s *Service) Cancel(id string) error {
	s.mu.Lock()
	c, ok := s.campaigns[id]
	if !ok {
		s.mu.Unlock()
		return errUnknownCampaign
	}
	c.mu.Lock()
	switch c.state {
	case StateQueued:
		// Out of the queue it can no longer be admitted; it stays "queued"
		// until settle has appended the state line.  A second Cancel in
		// that window finds it in no queue and has nothing to do.
		t := s.tenants[c.Tenant]
		queued := false
		for i, qc := range t.queue {
			if qc == c {
				t.queue = append(t.queue[:i], t.queue[i+1:]...)
				t.total--
				queued = true
				break
			}
		}
		c.mu.Unlock()
		s.mu.Unlock()
		if queued {
			s.settle(c, StateCancelled, "")
			c.emit(Event{Type: "cancelled"})
			s.logf("campaign_cancelled", "id", c.ID, "tenant", c.Tenant, "while", "queued")
		}
		return nil
	case StateRunning:
		c.cancelled = true
		cancel := c.cancel
		c.mu.Unlock()
		s.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return nil
	default:
		st := c.state
		c.mu.Unlock()
		s.mu.Unlock()
		return fmt.Errorf("service: campaign %s already %s", id, st)
	}
}

// Drain stops admission, cancels the in-flight generations of every
// running campaign and waits for the runners to checkpoint and exit.  After
// Drain returns, every non-terminal campaign has a checkpoint from which
// Restore continues it with no completed generation of any run lost.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	var cancels []context.CancelFunc
	for _, id := range s.order {
		c := s.campaigns[id]
		c.mu.Lock()
		if c.state == StateRunning && c.cancel != nil {
			cancels = append(cancels, c.cancel)
		}
		c.mu.Unlock()
	}
	s.mu.Unlock()

	s.logf("drain_begin", "running", len(cancels))
	for _, cancel := range cancels {
		cancel()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("service: drain: %w", ctx.Err())
	}
	s.logf("drain_done")
	return nil
}

// EvaluationsTotal reports evaluations dispatched to the backend.
func (s *Service) EvaluationsTotal() int64 { return s.evalsTotal.Load() }

// MemoStats returns the shared memo-cache counters (zero when disabled).
func (s *Service) MemoStats() ea.MemoStats {
	if s.memo == nil {
		return ea.MemoStats{}
	}
	return s.memo.Stats()
}
