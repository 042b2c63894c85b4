package service_test

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/ea"
	"repro/internal/service"
	"repro/internal/surrogate"
)

// intp is shorthand for Spec.Generations pointers.
func intp(n int) *int { return &n }

// newTestService builds a service over the deterministic surrogate.
func newTestService(t *testing.T, mutate func(*service.Config)) *service.Service {
	t.Helper()
	cfg := service.Config{
		Evaluator: surrogate.NewEvaluator(surrogate.Config{Seed: 2023}),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Runs before the removal of any t.TempDir made earlier, so no
	// campaign is still writing a checkpoint into it.
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := svc.Drain(ctx); err != nil {
			t.Errorf("drain at cleanup: %v", err)
		}
	})
	return svc
}

// waitState polls until the campaign reaches one of the wanted states.
func waitState(t *testing.T, c *service.Campaign, want ...service.State) service.State {
	t.Helper()
	for i := 0; i < 4000; i++ {
		st := c.State()
		for _, w := range want {
			if st == w {
				return st
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("campaign %s stuck in %s, wanted one of %v", c.ID, c.State(), want)
	return ""
}

func TestSpecValidation(t *testing.T) {
	svc := newTestService(t, nil)
	bad := []service.Spec{
		{},                                    // missing tenant
		{Tenant: "has space"},                 // bad charset
		{Tenant: strings.Repeat("x", 65)},     // too long
		{Tenant: "ok", Runs: 17},              // over run cap
		{Tenant: "ok", PopSize: 1024},         // over pop cap
		{Tenant: "ok", Generations: intp(-1)}, // negative gens
		{Tenant: "ok", AnnealFactor: -0.5},    // negative anneal
		{Tenant: "ok", Name: "bad name"},      // bad name charset
	}
	for i, sp := range bad {
		if _, err := svc.Create(sp); err == nil {
			t.Errorf("spec %d accepted: %+v", i, sp)
		}
	}
	// Defaults: a bare tenant-only spec runs 1×20 for 3 generations.
	c, err := svc.Create(service.Spec{Tenant: "ok"})
	if err != nil {
		t.Fatal(err)
	}
	st := c.Status()
	if st.Generations != 3 || st.Name == "" {
		t.Fatalf("defaults not applied: %+v", st)
	}
	waitState(t, c, service.StateDone)
}

func TestCampaignRunsToDone(t *testing.T) {
	svc := newTestService(t, nil)
	c, err := svc.Create(service.Spec{
		Tenant: "alice", Name: "first", Runs: 1, PopSize: 6,
		Generations: intp(2), BaseSeed: 7, Parallelism: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, service.StateDone)

	st := c.Status()
	if st.Evaluations != 6*3 { // pop × (gens+1 rounds)
		t.Errorf("evaluations = %d, want 18", st.Evaluations)
	}
	if st.GensDone != 2 || st.Frontier == 0 {
		t.Errorf("status = %+v", st)
	}
	lc := c.Lcurve()
	if len(lc) != 3 {
		t.Fatalf("lcurve has %d rounds, want 3", len(lc))
	}
	for _, p := range lc {
		if p.Evals != 6 {
			t.Errorf("round %d evaluated %d, want 6", p.Gen, p.Evals)
		}
	}
	// The ring must tell the whole story in order.
	evs := c.Events().Since(0)
	var types []string
	for _, e := range evs {
		types = append(types, e.Type)
	}
	want := []string{"created", "admitted", "generation", "generation", "generation", "done"}
	if strings.Join(types, ",") != strings.Join(want, ",") {
		t.Errorf("event sequence %v, want %v", types, want)
	}
	if svc.EvaluationsTotal() == 0 {
		t.Error("backend evaluation counter never moved")
	}
}

// blockingEvaluator completes one evaluation per token sent to release,
// and honors cancellation while waiting.
type blockingEvaluator struct {
	release chan struct{}
	calls   int64
}

func (b *blockingEvaluator) Evaluate(ctx context.Context, g ea.Genome) (ea.Fitness, error) {
	atomic.AddInt64(&b.calls, 1)
	select {
	case <-b.release:
		return ea.Fitness{g[0], -g[0]}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// onePerCampaign are spec fields making a campaign cost exactly one
// evaluation (pop 1, generation 0 only), so a blockingEvaluator token
// completes exactly one campaign.
func onePerCampaign(tenant string, seed int64) service.Spec {
	return service.Spec{Tenant: tenant, Runs: 1, PopSize: 1, Generations: intp(0), BaseSeed: seed}
}

func TestTenantCampaignQuota(t *testing.T) {
	be := &blockingEvaluator{release: make(chan struct{})}
	svc := newTestService(t, func(cfg *service.Config) {
		cfg.Evaluator = be
		cfg.MaxCampaignsPerTenant = 2
	})
	if _, err := svc.Create(onePerCampaign("alice", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Create(onePerCampaign("alice", 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Create(onePerCampaign("alice", 3)); err == nil {
		t.Fatal("third campaign admitted past a quota of 2")
	}
	// Another tenant's quota is untouched.
	if _, err := svc.Create(onePerCampaign("bob", 4)); err != nil {
		t.Fatalf("bob rejected by alice's quota: %v", err)
	}
	close(be.release)
}

func TestRoundRobinAdmission(t *testing.T) {
	be := &blockingEvaluator{release: make(chan struct{})}
	svc := newTestService(t, func(cfg *service.Config) {
		cfg.Evaluator = be
		cfg.MaxConcurrent = 1
		cfg.DisableMemo = true
	})
	// Alice floods first; bob arrives last.  With one slot, round-robin
	// must hand the second admission to bob, not alice's backlog.
	a1, err := svc.Create(onePerCampaign("alice", 1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, a1, service.StateRunning)
	a2, err := svc.Create(onePerCampaign("alice", 2))
	if err != nil {
		t.Fatal(err)
	}
	a3, err := svc.Create(onePerCampaign("alice", 3))
	if err != nil {
		t.Fatal(err)
	}
	b1, err := svc.Create(onePerCampaign("bob", 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*service.Campaign{a2, a3, b1} {
		if st := c.Status(); st.State != service.StateQueued {
			t.Fatalf("campaign %s is %s before any release", c.ID, st.State)
		}
	}
	for i := 0; i < 4; i++ {
		be.release <- struct{}{}
	}
	for _, c := range []*service.Campaign{a1, a2, a3, b1} {
		waitState(t, c, service.StateDone)
	}
	order := []int64{a1.Status().AdmitSeq, b1.Status().AdmitSeq, a2.Status().AdmitSeq, a3.Status().AdmitSeq}
	for i := 1; i < len(order); i++ {
		if order[i-1] >= order[i] {
			t.Fatalf("admission order a1,b1,a2,a3 violated: got seqs %v "+
				"(bob must preempt alice's backlog under round-robin)", order)
		}
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	be := &blockingEvaluator{release: make(chan struct{})}
	svc := newTestService(t, func(cfg *service.Config) {
		cfg.Evaluator = be
		cfg.MaxConcurrent = 1
	})
	running, err := svc.Create(onePerCampaign("alice", 1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, service.StateRunning)
	queued, err := svc.Create(onePerCampaign("alice", 2))
	if err != nil {
		t.Fatal(err)
	}

	if err := svc.Cancel(queued.ID); err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	if st := queued.State(); st != service.StateCancelled {
		t.Fatalf("queued campaign is %s after cancel", st)
	}
	if err := svc.Cancel(running.ID); err != nil {
		t.Fatalf("cancel running: %v", err)
	}
	waitState(t, running, service.StateCancelled)
	if err := svc.Cancel(running.ID); err == nil {
		t.Fatal("double cancel must fail")
	}
	if err := svc.Cancel("no-such-id"); err == nil {
		t.Fatal("cancelling unknown campaign must fail")
	}
}

func TestFailedEvaluatorFailsNothing(t *testing.T) {
	// Evaluator errors become MAXINT fitness inside the EA, not campaign
	// failures: the campaign completes with failure counts recorded.
	failing := ea.EvaluatorFunc(func(ctx context.Context, g ea.Genome) (ea.Fitness, error) {
		return nil, errors.New("node fell over")
	})
	svc := newTestService(t, func(cfg *service.Config) { cfg.Evaluator = failing })
	c, err := svc.Create(service.Spec{Tenant: "alice", Runs: 1, PopSize: 3, Generations: intp(1)})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, service.StateDone)
	if st := c.Status(); st.Failures != st.Evaluations || st.Failures == 0 {
		t.Fatalf("status = %+v, want all evaluations counted as failures", st)
	}
}

func TestDrainRejectsNewCampaigns(t *testing.T) {
	svc := newTestService(t, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Create(service.Spec{Tenant: "late"}); err == nil {
		t.Fatal("create during drain must be rejected")
	}
}

func TestInFlightQuotaBoundsConcurrency(t *testing.T) {
	var inflight, peak int64
	slow := ea.EvaluatorFunc(func(ctx context.Context, g ea.Genome) (ea.Fitness, error) {
		cur := atomic.AddInt64(&inflight, 1)
		for {
			old := atomic.LoadInt64(&peak)
			if cur <= old || atomic.CompareAndSwapInt64(&peak, old, cur) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		atomic.AddInt64(&inflight, -1)
		return ea.Fitness{g[0], -g[0]}, nil
	})
	svc := newTestService(t, func(cfg *service.Config) {
		cfg.Evaluator = slow
		cfg.MaxInFlightPerTenant = 2
		cfg.DisableMemo = true
	})
	c, err := svc.Create(service.Spec{
		Tenant: "alice", Runs: 1, PopSize: 8, Generations: intp(1), Parallelism: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, service.StateDone)
	if p := atomic.LoadInt64(&peak); p > 2 {
		t.Fatalf("peak in-flight %d exceeds tenant quota 2", p)
	}
}

// TestInFlightQuotaSpansCampaigns holds MaxInFlightPerTenant to its
// meaning across campaigns: two running campaigns of one tenant share
// one quota, and another tenant's campaign finishes while that quota is
// held.  The evaluator holds every call until released; once alice has
// her two evaluations in flight, any further call can only be bob's, so
// those return at once.
func TestInFlightQuotaSpansCampaigns(t *testing.T) {
	var (
		inflight, peak int64
		fast           atomic.Bool
		release        = make(chan struct{})
	)
	ev := ea.EvaluatorFunc(func(ctx context.Context, g ea.Genome) (ea.Fitness, error) {
		if fast.Load() {
			return ea.Fitness{g[0], -g[0]}, nil
		}
		cur := atomic.AddInt64(&inflight, 1)
		defer atomic.AddInt64(&inflight, -1)
		for {
			old := atomic.LoadInt64(&peak)
			if cur <= old || atomic.CompareAndSwapInt64(&peak, old, cur) {
				break
			}
		}
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return ea.Fitness{g[0], -g[0]}, nil
	})
	svc := newTestService(t, func(cfg *service.Config) {
		cfg.Evaluator = ev
		cfg.MaxInFlightPerTenant = 2
		cfg.MaxActivePerTenant = 2
		cfg.DisableMemo = true
	})
	spec := func(tenant string, seed int64) service.Spec {
		return service.Spec{Tenant: tenant, Runs: 2, PopSize: 4, Generations: intp(1), Parallelism: 4, BaseSeed: seed}
	}
	var alice []*service.Campaign
	for _, seed := range []int64{1, 17} {
		c, err := svc.Create(spec("alice", seed))
		if err != nil {
			t.Fatal(err)
		}
		alice = append(alice, c)
	}
	for _, c := range alice {
		waitState(t, c, service.StateRunning)
	}
	for i := 0; atomic.LoadInt64(&inflight) < 2; i++ {
		if i == 4000 {
			t.Fatalf("alice never reached 2 evaluations in flight (at %d)", atomic.LoadInt64(&inflight))
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Four lanes want 16 evaluations in flight; give any that escape the
	// quota time to show.
	time.Sleep(50 * time.Millisecond)
	if p := atomic.LoadInt64(&peak); p > 2 {
		t.Fatalf("peak in-flight %d across alice's two campaigns exceeds her quota 2", p)
	}

	fast.Store(true)
	bob, err := svc.Create(spec("bob", 33))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, bob, service.StateDone)
	if n := atomic.LoadInt64(&inflight); n != 2 {
		t.Fatalf("alice has %d evaluations in flight while bob ran, want her 2 held", n)
	}
	for _, c := range alice {
		if st := c.State(); st != service.StateRunning {
			t.Fatalf("alice's campaign %s is %s before her evaluations were released", c.ID, st)
		}
	}
	close(release)
	for _, c := range alice {
		waitState(t, c, service.StateDone)
		if st := c.Status(); st.Evaluations != 2*4*2 || st.Failures != 0 {
			t.Fatalf("alice's campaign status = %+v", st)
		}
	}
	if p := atomic.LoadInt64(&peak); p > 2 {
		t.Fatalf("peak in-flight %d across alice's two campaigns exceeds her quota 2", p)
	}
}

// TestQuotaWaitIsNotEvaluationTime holds runtime_ms to the evaluation
// itself (§2.2.4): an individual waiting for its tenant's in-flight quota
// is not yet being evaluated, so its runtime does not run.  Four 40 ms
// evaluations through a quota of one take 160 ms end to end; each must
// report under 100 ms.  Once the campaign is done, its tenant holds no
// evaluation goroutine.
func TestQuotaWaitIsNotEvaluationTime(t *testing.T) {
	slow := ea.EvaluatorFunc(func(ctx context.Context, g ea.Genome) (ea.Fitness, error) {
		select {
		case <-time.After(40 * time.Millisecond):
			return ea.Fitness{g[0], -g[0]}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	svc := newTestService(t, func(cfg *service.Config) {
		cfg.Evaluator = slow
		cfg.MaxInFlightPerTenant = 1
		cfg.DisableMemo = true
	})
	c, err := svc.Create(service.Spec{
		Tenant: "alice", Runs: 1, PopSize: 4, Generations: intp(0), Parallelism: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, service.StateDone)
	if st := c.Status(); st.Evaluations != 4 || st.Failures != 0 {
		t.Fatalf("status = %+v, want 4 evaluations and no failures", st)
	}
	for _, ind := range c.Result().Runs[0].Generations[0].Evaluated {
		if ms := ind.Runtime.Milliseconds(); ms >= 100 || ind.Err != nil {
			t.Fatalf("individual %s: runtime_ms %d, err %v; want under 100 and no error", ind.ID, ms, ind.Err)
		}
	}
	// The state settles before the campaign's capacity is released.
	for i := 0; workerGoroutines() > 0; i++ {
		if i == 400 {
			t.Fatalf("%d evaluation goroutines left after the tenant's only campaign finished", workerGoroutines())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWorkerCapsServedEvaluations: on the served route the worker's
// TaskTimeout is the one cap on an evaluation, as the paper's two-hour
// limit ran inside the Dask worker's task (§2.2.4).  Handlers that
// outlast it cost their individuals MAXINT fitness, with the worker's
// timeout as the recorded cause, and the campaign still finishes.
func TestWorkerCapsServedEvaluations(t *testing.T) {
	const evalCap = 20 * time.Millisecond
	release := make(chan struct{})
	hung := func(context.Context, []byte) ([]byte, error) {
		<-release // ignores its context, like a hung training
		return nil, errors.New("released after the test")
	}
	lc, err := cluster.NewLocalCluster(2, hung, evalCap)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lc.Close() })
	t.Cleanup(func() { close(release) })
	svc := newTestService(t, func(cfg *service.Config) {
		cfg.Evaluator = &cluster.Evaluator{Client: lc.Scheduler}
		cfg.Scheduler = lc.Scheduler
	})
	c, err := svc.Create(service.Spec{Tenant: "alice", Runs: 1, PopSize: 4, Generations: intp(1), BaseSeed: 5, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, service.StateDone)
	if st := c.Status(); st.Evaluations != 8 || st.Failures != 8 {
		t.Fatalf("status = %+v, want all 8 evaluations failed", st)
	}
	for _, gen := range c.Result().Runs[0].Generations {
		for _, ind := range gen.Evaluated {
			if !slices.Equal(ind.Fitness, ea.FailureFitness(2)) || ind.Err == nil || !strings.Contains(ind.Err.Error(), ea.ErrEvalTimeout.Error()) {
				t.Fatalf("individual %s: fitness %v, err %v; want MAXINT and %q", ind.ID, ind.Fitness, ind.Err, ea.ErrEvalTimeout)
			}
		}
	}
}

// workerGoroutines counts the goroutines serving an ea.Workers.
func workerGoroutines() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "ea.(*Workers).serve")
}
