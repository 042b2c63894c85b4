package service

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/ea"
	"repro/internal/hpo"
	"repro/internal/nsga2"
)

// Spec is the client-supplied description of one campaign: the JSON body
// of POST /v1/campaigns.  Zero fields take the documented defaults.
type Spec struct {
	// Tenant is the owning namespace; required.  Quotas and fairness are
	// enforced per tenant.
	Tenant string `json:"tenant"`
	// Name is a human label; defaults to a prefix of the campaign ID.
	Name string `json:"name,omitempty"`
	// Runs is the number of independent NSGA-II runs (default 1, max 16).
	Runs int `json:"runs,omitempty"`
	// PopSize is parents = offspring per generation (default 20, max 512).
	PopSize int `json:"pop_size,omitempty"`
	// Generations is the number of offspring generations (default 3,
	// max 10000; 0 evaluates only the initial population).
	Generations *int `json:"generations,omitempty"`
	// BaseSeed seeds the campaign's RNG streams (default 0).
	BaseSeed int64 `json:"base_seed,omitempty"`
	// AnnealFactor multiplies mutation σ per generation (default 0.85).
	AnnealFactor float64 `json:"anneal_factor,omitempty"`
	// Parallelism is concurrent evaluations per run (default: the
	// evaluation pool's own default; the tenant in-flight quota applies
	// regardless).
	Parallelism int `json:"parallelism,omitempty"`
}

// gens returns the target offspring-generation count with the default
// applied; callers must have run validate first.
func (sp *Spec) gens() int { return *sp.Generations }

func validName(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '-' || r == '_' || r == '.':
		default:
			return false
		}
	}
	return true
}

// validate normalizes defaults in place and rejects malformed specs.
func (sp *Spec) validate() error {
	if !validName(sp.Tenant) {
		return fmt.Errorf("service: tenant must be 1-64 chars of [a-zA-Z0-9._-], got %q", sp.Tenant)
	}
	if sp.Name != "" && !validName(sp.Name) {
		return fmt.Errorf("service: name must be 1-64 chars of [a-zA-Z0-9._-], got %q", sp.Name)
	}
	if sp.Runs == 0 {
		sp.Runs = 1
	}
	if sp.Runs < 0 || sp.Runs > 16 {
		return fmt.Errorf("service: runs must be in [1,16], got %d", sp.Runs)
	}
	if sp.PopSize == 0 {
		sp.PopSize = 20
	}
	if sp.PopSize < 0 || sp.PopSize > 512 {
		return fmt.Errorf("service: pop_size must be in [1,512], got %d", sp.PopSize)
	}
	if sp.Generations == nil {
		g := 3
		sp.Generations = &g
	}
	if *sp.Generations < 0 || *sp.Generations > 10000 {
		return fmt.Errorf("service: generations must be in [0,10000], got %d", *sp.Generations)
	}
	if sp.AnnealFactor == 0 {
		sp.AnnealFactor = nsga2.PaperAnnealFactor
	}
	if sp.AnnealFactor < 0 || sp.AnnealFactor > 2 {
		return fmt.Errorf("service: anneal_factor must be in (0,2], got %g", sp.AnnealFactor)
	}
	if sp.Parallelism < 0 {
		return fmt.Errorf("service: parallelism must be >= 0, got %d", sp.Parallelism)
	}
	return nil
}

// State is a campaign's lifecycle position.
type State string

const (
	// StateQueued: created, awaiting admission.
	StateQueued State = "queued"
	// StateRunning: admitted, lanes executing.
	StateRunning State = "running"
	// StateDone: all generations completed.
	StateDone State = "done"
	// StateFailed: a lane failed for a non-cancellation reason.
	StateFailed State = "failed"
	// StateCancelled: stopped by client request.
	StateCancelled State = "cancelled"
	// StateSuspended: interrupted by drain; resumable via Restore.
	StateSuspended State = "suspended"
)

// Terminal reports whether the state is final for the campaign (a
// suspended campaign is final only for this process — Restore requeues
// it).
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Campaign is one tenant-owned NSGA-II campaign inside the service.
// Exported fields are immutable after creation; everything else is
// guarded by mu.
type Campaign struct {
	ID      string
	Tenant  string
	Spec    Spec
	Created time.Time
	ring    *Ring

	// reportMu serializes generation events, so they leave in ascending
	// order whichever lanes trigger them.  Taken before mu, never while
	// holding it.
	reportMu sync.Mutex

	// ckptMu serializes appends to the checkpoint file (lanes append
	// concurrently); ckptBroken is set by the first append that fails.
	// A leaf lock: nothing else is taken while holding it.
	ckptMu     sync.Mutex
	ckptBroken bool

	mu        sync.Mutex
	state     State
	cancel    context.CancelFunc
	cancelled bool // Cancel() requested while running (vs. drain)
	admitSeq  int64
	result    *hpo.CampaignResult
	reported  int // evaluation rounds whose generation event has gone out
	errMsg    string
}

// emit appends an event to the campaign's ring, stamping campaign ID and
// wall time.
func (c *Campaign) emit(e Event) {
	e.Campaign = c.ID
	e.Time = now()
	c.ring.Append(e)
}

// State returns the current lifecycle state.
func (c *Campaign) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// Result returns the accumulated campaign result: every generation any
// run has completed, so runs ahead of gens_done show here first.  It is
// nil before the first run finishes generation 0; from then on it holds
// one entry per run, empty for a run still in generation 0.  The returned
// structure is safe to read: lanes replace it wholesale and never mutate
// published individuals' genomes or fitnesses.
func (c *Campaign) Result() *hpo.CampaignResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.result
}

// Events returns the campaign's event ring.
func (c *Campaign) Events() *Ring { return c.ring }

// roundsLocked counts the evaluation rounds every run has completed:
// the minimum over runs of their generation records (round 0 is the
// initial population; a run without records, or missing from the result,
// is a lane that has not finished it).  Caller holds c.mu.
func (c *Campaign) roundsLocked() int {
	if c.result == nil || len(c.result.Runs) < c.Spec.Runs {
		return 0
	}
	n := len(c.result.Runs[0].Generations)
	for _, run := range c.result.Runs[1:] {
		n = min(n, len(run.Generations))
	}
	return n
}

// gensDoneLocked counts completed offspring generations: the campaign is
// as far as its slowest run.  Caller holds c.mu.  Generation 0 is round
// zero, so n completed rounds leave n-1 offspring generations behind.
func (c *Campaign) gensDoneLocked() int {
	return max(c.roundsLocked()-1, 0)
}

// runResult returns run r's accumulated result, nil while its lane is
// still in generation 0.
func (c *Campaign) runResult(r int) *nsga2.Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.result == nil || r >= len(c.result.Runs) || len(c.result.Runs[r].Generations) == 0 {
		return nil
	}
	return c.result.Runs[r]
}

// publish installs run r's new result by swapping in a fresh
// CampaignResult (readers keep whatever pointer they hold) and reports
// whether that completed a round for the whole campaign.
func (c *Campaign) publish(r int, run *nsga2.Result) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	before := c.roundsLocked()
	next := &hpo.CampaignResult{Runs: make([]*nsga2.Result, c.Spec.Runs)}
	if c.result != nil {
		copy(next.Runs, c.result.Runs)
	}
	next.Runs[r] = run
	for i, have := range next.Runs {
		if have == nil {
			next.Runs[i] = &nsga2.Result{}
		}
	}
	c.result = next
	return c.roundsLocked() > before
}

// lcurvePoint is one evaluation round of GET /v1/campaigns/{id}/lcurve.
type lcurvePoint struct {
	Gen      int `json:"gen"`
	Evals    int `json:"evals"`
	Failures int `json:"failures"`
}

// lcurveOf sums evaluation effort over runs for res's first rounds
// evaluation rounds, which every run must have completed.  Records past
// them — lanes running ahead — are left out, so the answer depends on
// rounds alone, never on how far ahead some lane happens to be.
func lcurveOf(res *hpo.CampaignResult, rounds int) []lcurvePoint {
	out := make([]lcurvePoint, rounds)
	for g := range out {
		out[g].Gen = g
		for _, run := range res.Runs {
			out[g].Evals += len(run.Generations[g].Evaluated)
			out[g].Failures += run.Generations[g].Failures
		}
	}
	return out
}

// frontOf is the Pareto frontier of res as of its first rounds
// evaluation rounds: the non-dominated subset of every run's survivors
// of the last of them.  For a finished campaign that is
// res.ParetoFront().
func frontOf(res *hpo.CampaignResult, rounds int) ea.Population {
	if rounds == 0 {
		return nil
	}
	var pool ea.Population
	for _, run := range res.Runs {
		pool = append(pool, run.Generations[rounds-1].Survivors...)
	}
	return nsga2.NonDominated(pool)
}

// tallyOf totals res as of its first rounds evaluation rounds.
func tallyOf(res *hpo.CampaignResult, rounds int) (evals, failures, frontier int) {
	for _, p := range lcurveOf(res, rounds) {
		evals += p.Evals
		failures += p.Failures
	}
	return evals, failures, len(frontOf(res, rounds))
}

// progress snapshots the accumulated result and how many of its rounds
// every run has completed; both feed lcurveOf, frontOf and tallyOf
// outside the lock.
func (c *Campaign) progress() (*hpo.CampaignResult, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.result, c.roundsLocked()
}

// Frontier returns the campaign's Pareto frontier as of gens_done.
func (c *Campaign) Frontier() ea.Population {
	return frontOf(c.progress())
}

// Lcurve summarizes evaluation effort per evaluation round up to
// gens_done (round 0 is the initial population).
func (c *Campaign) Lcurve() []lcurvePoint {
	return lcurveOf(c.progress())
}

// Status is the JSON shape of GET /v1/campaigns/{id}.  GensDone is the
// minimum over runs, and Evaluations, Failures and Frontier describe the
// campaign as of that generation — the numbers the last generation event
// carried — so a status depends on gens_done alone.  RunGens shows the
// lanes: generations done per run, -1 for a run still in generation 0;
// entries above gens_done are lanes running ahead.
type Status struct {
	ID          string `json:"id"`
	Tenant      string `json:"tenant"`
	Name        string `json:"name"`
	State       State  `json:"state"`
	Generations int    `json:"generations"`
	GensDone    int    `json:"gens_done"`
	RunGens     []int  `json:"run_gens,omitempty"`
	Evaluations int    `json:"evaluations"`
	Failures    int    `json:"failures"`
	Frontier    int    `json:"frontier_size"`
	// AdmitSeq is the global admission order (1 = first admitted, 0 =
	// not yet admitted): the observable form of round-robin fairness.
	AdmitSeq int64  `json:"admit_seq,omitempty"`
	Error    string `json:"error,omitempty"`
}

// Status snapshots the campaign for API responses.
func (c *Campaign) Status() Status {
	c.mu.Lock()
	st := Status{
		ID:          c.ID,
		Tenant:      c.Tenant,
		Name:        c.Spec.Name,
		State:       c.state,
		Generations: c.Spec.gens(),
		GensDone:    c.gensDoneLocked(),
		AdmitSeq:    c.admitSeq,
		Error:       c.errMsg,
	}
	res, rounds := c.result, c.roundsLocked()
	c.mu.Unlock()
	if res != nil {
		for _, run := range res.Runs {
			st.RunGens = append(st.RunGens, len(run.Generations)-1)
		}
		st.Evaluations, st.Failures, st.Frontier = tallyOf(res, rounds)
	}
	return st
}

// campaignConfig is the hpo configuration of c: what hpo.RunCampaign
// would run for its spec, evaluated through the shared memo on the
// tenant's workers, which is what bounds the lanes' total.  It sets no
// EvalTimeout: the worker's TaskTimeout is the one cap on an
// evaluation, because its clock starts with the training rather than in
// the scheduler's queue, and only the worker can stop a training.
func (s *Service) campaignConfig(c *Campaign, w *ea.Workers) hpo.CampaignConfig {
	return hpo.CampaignConfig{
		Runs:         c.Spec.Runs,
		PopSize:      c.Spec.PopSize,
		Generations:  c.Spec.gens(),
		Evaluator:    s.eval,
		Parallelism:  c.Spec.Parallelism,
		Workers:      w,
		AnnealFactor: c.Spec.AnnealFactor,
		BaseSeed:     c.Spec.BaseSeed,
	}
}

// run executes a campaign as one lane per run.  The runs of a campaign
// never exchange anything, so nothing makes one wait for another: every
// lane is its run's whole search, and one run's stragglers overlap with
// the other runs' work instead of idling the fleet at a barrier.
//
// The first lane error cancels the sibling lanes; run returns only after
// every lane has, and classifies the campaign once.
func (s *Service) run(ctx context.Context, c *Campaign, t *tenant, w *ea.Workers) {
	defer s.wg.Done()
	defer s.release(c, t)

	c.mu.Lock()
	c.reported = c.roundsLocked() // a restored campaign does not re-announce
	gd := c.gensDoneLocked()
	c.mu.Unlock()
	c.emit(Event{Type: "admitted"})
	s.logf("campaign_admitted", "id", c.ID, "tenant", c.Tenant, "gens_done", gd)

	laneCtx, stop := context.WithCancel(ctx)
	defer stop()
	var (
		lanes   sync.WaitGroup
		failed  sync.Once
		laneErr error
	)
	runLane := func(r int) {
		if err := s.lane(laneCtx, c, w, r); err != nil {
			failed.Do(func() {
				laneErr = err
				stop()
			})
		}
	}
	// Run 0's lane is this goroutine: a one-run campaign is the same
	// sequence of records and events it always was.
	for r := 1; r < c.Spec.Runs; r++ {
		lanes.Add(1)
		go func(r int) {
			defer lanes.Done()
			runLane(r)
		}(r)
	}
	runLane(0)
	lanes.Wait()
	if laneErr != nil {
		s.finishLane(ctx, c, laneErr)
		return
	}

	s.settle(c, StateDone, "")
	c.emit(Event{Type: "done"})
	s.logf("campaign_done", "id", c.ID, "tenant", c.Tenant)
}

// lane runs run r of c to the campaign's target as hpo.ContinueRun from
// the run's records so far: a restored run replays its checkpoint, one
// that is complete evaluates nothing, and the result is the run
// hpo.RunCampaign computes for the same spec.  After each generation it
// evaluates, the lane checkpoints the record and then publishes it; it
// is the only writer of its run, in memory and in the checkpoint.  The
// generation that brings the slowest run level completes a generation
// of the campaign and reports it.
func (s *Service) lane(ctx context.Context, c *Campaign, w *ea.Workers, r int) error {
	cfg := s.campaignConfig(c, w)
	run := c.runResult(r)
	var line []byte // the lane's checkpoint line buffer, reused for every record
	cfg.Observer = func(_, gen int, evaluated, survivors ea.Population) {
		rec := nsga2.GenerationRecord{Gen: gen, Evaluated: evaluated, Survivors: survivors, Failures: evaluated.Failures()}
		var gens []nsga2.GenerationRecord
		if run != nil {
			gens = run.Generations[:len(run.Generations):len(run.Generations)]
		}
		run = &nsga2.Result{Generations: append(gens, rec), Final: survivors}
		line = s.appendRecord(line, c, r, rec)
		if c.publish(r, run) {
			s.reportGenerations(c)
		}
	}
	_, err := hpo.ContinueRun(ctx, cfg, r, run)
	return err
}

// reportGenerations announces every generation the campaign has
// completed and not yet reported: one generation event each, in
// ascending order.  Lanes call it after a publish that advanced
// gens_done; two that race find the work done once, by whichever got
// here first.  The records behind an event are in the checkpoint already
// (each lane appended its own before publishing), and the event's
// numbers count generation records up to its own generation only, so
// they are the same whether or not some lane was ahead when it went out.
func (s *Service) reportGenerations(c *Campaign) {
	c.reportMu.Lock()
	defer c.reportMu.Unlock()
	for {
		c.mu.Lock()
		res, gen := c.result, c.reported
		pending := gen < c.roundsLocked()
		if pending {
			c.reported++
		}
		c.mu.Unlock()
		if !pending {
			return
		}
		evals, fails, frontier := tallyOf(res, gen+1)
		c.emit(Event{Type: "generation", Gen: gen, Evals: evals, Failures: fails, Frontier: frontier})
		s.logf("campaign_generation", "id", c.ID, "tenant", c.Tenant,
			"gen", gen, "of", c.Spec.gens(), "evals", evals, "failures", fails, "frontier", frontier)
	}
}

// finishLane classifies a failed lane: context cancellation is either a
// client cancel or a drain suspension; anything else fails the campaign.
// Either way the checkpoint holds every generation any lane completed,
// so none of it is evaluated again after Restore.
func (s *Service) finishLane(ctx context.Context, c *Campaign, laneErr error) {
	c.mu.Lock()
	cancelled := c.cancelled
	gd := c.gensDoneLocked()
	c.mu.Unlock()
	switch {
	case ctx.Err() != nil && cancelled:
		s.settle(c, StateCancelled, "")
	case ctx.Err() != nil:
		s.settle(c, StateSuspended, "")
	default:
		s.settle(c, StateFailed, laneErr.Error())
	}
	typ := string(c.State())
	c.emit(Event{Type: typ, Gen: gd, Detail: laneErr.Error()})
	s.logf("campaign_"+typ, "id", c.ID, "tenant", c.Tenant, "gens_done", gd, "err", laneErr)
}
