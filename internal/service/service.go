// Package service is the long-running, multi-tenant HPO control plane:
// the promotion of the one-shot cmd/hpo / cmd/cluster-drive binaries
// into an always-on campaign service, the operational pattern behind the
// paper's chained 12-hour Summit submissions (§2.2.5) run as a product
// instead of a batch script.
//
// Clients create campaigns over an HTTP/JSON API, poll or stream
// per-generation events (SSE with a long-poll fallback), and fetch
// frontiers and full campaign records.  Every campaign shares one
// elastic worker fleet through the configured evaluator — typically a
// cluster client in front of the lease scheduler, wrapped in the shared
// genome-keyed memo cache — while keeping its own RNG stream, EA context
// and event ring.
//
// Execution is *legged* and *laned*.  Every run of a campaign is a lane:
// it advances one offspring generation per leg — hpo.RunCampaign with
// Runs 1 for generation 0, hpo.ResumeRun for every later one — and starts
// its next leg the moment the last is published.  The runs of a campaign
// never exchange anything, so no lane waits for another: one run's
// stragglers overlap with the other runs' evaluations instead of idling
// the fleet at a barrier five times per generation.  A campaign has up to
// runs × parallelism evaluations in flight, capped by its tenant's
// MaxInFlightPerTenant.
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
// ahead of gens_done inside a checkpoint, and Restore resumes each from
// its own last record; a final line without its newline is a write a
// crash tore, dropped (and truncated away) on Restore.
//
// Because each leg's RNG seed is derived from (BaseSeed, run, that run's
// gensDone) alone, the result of a campaign is a pure function of its
// spec — independent of how lanes interleave and of where process
// restarts fall — so a scheduler bounce or deploy loses at most each
// run's in-flight generation and the resumed frontier is byte-identical
// to an uninterrupted run's.
package service

import (
	"context"
	"fmt"
	"os"
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
	// MaxInFlightPerTenant caps one tenant's concurrent evaluation
	// requests against the shared fleet (default 64).  It is what bounds
	// a campaign's lanes: runs × parallelism evaluations want to be in
	// flight, and this many are.
	MaxInFlightPerTenant int
	// EventBuffer is the per-campaign event-ring capacity (default 256).
	EventBuffer int
	// Logf, if non-nil, receives structured key=value log lines.
	Logf func(format string, args ...interface{})
	// SchedulerStats, if non-nil, feeds lease-scheduler counters into
	// /metrics (wire it to Scheduler.Stats + Scheduler.WorkerStats).
	SchedulerStats func() (cluster.Stats, []cluster.WorkerStats)
	// SchedulerEvents, if non-nil, feeds scheduler lifecycle-event
	// counts into /metrics (wire it to Scheduler.OnEvent).
	SchedulerEvents *cluster.EventCounters
	// SchedulerWire, if non-nil, feeds transport-level frame/byte/error
	// counters into /metrics (wire it to Scheduler.Wire, or Client.Wire
	// for a remote backend).
	SchedulerWire func() cluster.WireStats
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
	if cfg.EventBuffer <= 0 {
		cfg.EventBuffer = 256
	}
	return cfg
}

// tenant is one client namespace sharing the fleet.
type tenant struct {
	name      string
	queue     []*Campaign   // admission FIFO
	active    int           // campaigns currently running
	total     int           // queued + running (quota basis)
	lastAdmit int64         // admitSeq of this tenant's latest admission
	gate      chan struct{} // in-flight evaluation semaphore
}

// Service owns the campaign registry, the admission loop and the shared
// evaluator chain.  Lock order: Service.mu before Campaign.mu; never the
// reverse.
type Service struct {
	cfg        Config
	memo       *ea.MemoEvaluator
	eval       ea.Evaluator // shared chain: memo? → counting → backend
	evalsTotal int64        // atomic: evaluations dispatched to the backend

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
	s.eval = countingEvaluator{inner: cfg.Evaluator, n: &s.evalsTotal}
	if !cfg.DisableMemo {
		s.memo = ea.NewMemoEvaluator(s.eval)
		s.eval = s.memo
	}
	return s, nil
}

// countingEvaluator counts evaluations that actually reach the backend
// (memo hits never get here): the /metrics eval-throughput counter.
type countingEvaluator struct {
	inner ea.Evaluator
	n     *int64
}

func (c countingEvaluator) Evaluate(ctx context.Context, g ea.Genome) (ea.Fitness, error) {
	atomic.AddInt64(c.n, 1)
	return c.inner.Evaluate(ctx, g)
}

// gatedEvaluator enforces a tenant's in-flight evaluation quota in front
// of the shared chain.
type gatedEvaluator struct {
	inner ea.Evaluator
	gate  chan struct{}
}

func (g gatedEvaluator) Evaluate(ctx context.Context, genome ea.Genome) (ea.Fitness, error) {
	select {
	case g.gate <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-g.gate }()
	return g.inner.Evaluate(ctx, genome)
}

// tenantLocked returns (creating if needed) the tenant record.  Caller
// holds s.mu.
func (s *Service) tenantLocked(name string) *tenant {
	if t, ok := s.tenants[name]; ok {
		return t
	}
	t := &tenant{name: name, gate: make(chan struct{}, s.cfg.MaxInFlightPerTenant)}
	s.tenants[name] = t
	i := sort.SearchStrings(s.tenantOrder, name)
	s.tenantOrder = append(s.tenantOrder, "")
	copy(s.tenantOrder[i+1:], s.tenantOrder[i:])
	s.tenantOrder[i] = name
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
		ring:    NewRing(s.cfg.EventBuffer),
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
		go s.run(ctx, c, best)
	}
}

// release returns a finished campaign's capacity and re-dispatches.
func (s *Service) release(c *Campaign, t *tenant) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.active--
	t.active--
	if c.State().Terminal() {
		t.total--
	}
	s.dispatchLocked()
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

// Drain stops admission, cancels the in-flight legs of every running
// campaign and waits for the runners to checkpoint and exit.  After
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
func (s *Service) EvaluationsTotal() int64 { return atomic.LoadInt64(&s.evalsTotal) }

// MemoStats returns the shared memo-cache counters (zero when disabled).
func (s *Service) MemoStats() ea.MemoStats {
	if s.memo == nil {
		return ea.MemoStats{}
	}
	return s.memo.Stats()
}
