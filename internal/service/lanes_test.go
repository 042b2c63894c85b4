package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/ea"
	"repro/internal/hpo"
	"repro/internal/service"
	"repro/internal/surrogate"
)

// terminalEvents returns the types of the campaign's terminal events
// (suspended counts: it ends the campaign for this process).
func terminalEvents(c *service.Campaign) []string {
	var out []string
	for _, e := range c.Events().Since(0) {
		switch e.Type {
		case "done", "failed", "cancelled", "suspended":
			out = append(out, e.Type)
		}
	}
	return out
}

// waitTerminalEvents polls until the campaign has a terminal event (it
// follows the state change and the checkpoint) and returns all of them.
func waitTerminalEvents(t *testing.T, c *service.Campaign) []string {
	t.Helper()
	for i := 0; i < 4000; i++ {
		if got := terminalEvents(c); len(got) > 0 {
			return got
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("campaign %s (%s) never emitted a terminal event", c.ID, c.State())
	return nil
}

// generationEvents returns the Gen of every generation event, in ring
// order.
func generationEvents(c *service.Campaign) []int {
	var out []int
	for _, e := range c.Events().Since(0) {
		if e.Type == "generation" {
			out = append(out, e.Gen)
		}
	}
	return out
}

// writeCheckpoint plants a service checkpoint for Restore to find, the
// way a previous process would have left it: header, every run's records,
// the state line.
func writeCheckpoint(t *testing.T, dir, id string, spec service.Spec, state service.State, res *hpo.CampaignResult) {
	t.Helper()
	var doc bytes.Buffer
	line := func(data []byte, err error) {
		if err != nil {
			t.Fatal(err)
		}
		doc.Write(data)
		doc.WriteByte('\n')
	}
	line(json.Marshal(map[string]interface{}{
		"format": "repro-service-campaign", "version": 2,
		"id": id, "tenant": spec.Tenant, "created": time.Unix(1700000000, 0).UTC(), "spec": spec,
	}))
	for r, run := range res.Runs {
		for _, gen := range run.Generations {
			line(hpo.AppendGeneration(nil, r, gen), nil)
		}
	}
	line(json.Marshal(map[string]interface{}{"state": state}))
	if err := os.WriteFile(filepath.Join(dir, id+".json"), doc.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRunsShareTheFleet pins the point of the lanes: the runs of one
// campaign evaluate at the same time.  The evaluator is a rendezvous
// that lets nothing finish until runs × parallelism evaluations are in
// flight at once, which a service that drives the runs one after another
// never reaches.
func TestRunsShareTheFleet(t *testing.T) {
	const runs, par = 3, 4
	var (
		inflight int64
		timedOut int64
		once     sync.Once
		released = make(chan struct{})
	)
	rendezvous := ea.EvaluatorFunc(func(ctx context.Context, g ea.Genome) (ea.Fitness, error) {
		if atomic.AddInt64(&inflight, 1) == runs*par {
			once.Do(func() { close(released) })
		}
		defer atomic.AddInt64(&inflight, -1)
		select {
		case <-released:
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(10 * time.Second):
			atomic.AddInt64(&timedOut, 1)
		}
		return ea.Fitness{g[0], -g[0]}, nil
	})
	svc := newTestService(t, func(cfg *service.Config) {
		cfg.Evaluator = rendezvous
		cfg.DisableMemo = true
	})
	c, err := svc.Create(service.Spec{
		Tenant: "alice", Runs: runs, PopSize: par, Generations: intp(1), Parallelism: par,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, service.StateDone)
	if n := atomic.LoadInt64(&timedOut); n != 0 {
		t.Fatalf("%d evaluations gave up waiting for %d in flight: the runs do not overlap", n, runs*par)
	}
	if st := c.Status(); st.Evaluations != runs*par*2 || st.GensDone != 1 {
		t.Fatalf("status = %+v", st)
	}
	if got := generationEvents(c); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("generation events %v, want [0 1]", got)
	}
}

// sameRuns reports, as an error naming the first difference, whether
// got holds want's records: per run and generation, the evaluated
// individuals and the survivors in order, genome and fitness bit for
// bit.
func sameRuns(got, want *hpo.CampaignResult) error {
	if len(got.Runs) != len(want.Runs) {
		return fmt.Errorf("%d runs, want %d", len(got.Runs), len(want.Runs))
	}
	bits := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	for r, run := range got.Runs {
		w := want.Runs[r]
		if len(run.Generations) != len(w.Generations) {
			return fmt.Errorf("run %d: %d generations, want %d", r, len(run.Generations), len(w.Generations))
		}
		for g, rec := range run.Generations {
			for _, pair := range [][2]ea.Population{{rec.Evaluated, w.Generations[g].Evaluated}, {rec.Survivors, w.Generations[g].Survivors}} {
				if len(pair[0]) != len(pair[1]) {
					return fmt.Errorf("run %d gen %d: %d individuals, want %d", r, g, len(pair[0]), len(pair[1]))
				}
				for i, ind := range pair[0] {
					if !bits(ind.Genome, pair[1][i].Genome) || !bits(ind.Fitness, pair[1][i].Fitness) {
						return fmt.Errorf("run %d gen %d position %d: %v %v, want %v %v",
							r, g, i, ind.Genome, ind.Fitness, pair[1][i].Genome, pair[1][i].Fitness)
					}
				}
			}
		}
	}
	return nil
}

// TestServedEqualsDirectByteIdentical pins that a served campaign is the
// campaign hpo.RunCampaign computes for its spec, on a LocalCluster
// fleet: every run's records, generation by generation and in survivor
// order, and the /frontier document — once uninterrupted and once
// drained mid-campaign and restored, so restart invariance comes from
// replaying the checkpoint.
func TestServedEqualsDirectByteIdentical(t *testing.T) {
	spec := service.Spec{
		Tenant: "alice", Name: "direct", Runs: 3, PopSize: 6, Generations: intp(4),
		BaseSeed: 41, Parallelism: 3,
	}
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	sur := surrogate.NewEvaluator(surrogate.Config{Seed: 2023})
	direct, err := hpo.RunCampaign(context.Background(), hpo.CampaignConfig{
		Runs: spec.Runs, PopSize: spec.PopSize, Generations: *spec.Generations,
		Evaluator: sur, Parallelism: spec.Parallelism, BaseSeed: spec.BaseSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The direct campaign through the same renderer: a terminal
	// checkpoint is registered read-only by Restore.
	refDir := t.TempDir()
	const refID = "00000000-0000-4000-8000-000000000001"
	writeCheckpoint(t, refDir, refID, spec, service.StateDone, direct)
	refSvc, refSrv := newTestServer(t, func(cfg *service.Config) { cfg.CheckpointDir = refDir })
	if _, err := refSvc.Restore(); err != nil {
		t.Fatal(err)
	}
	wantFrontier := getBytes(t, refSrv.URL+"/v1/campaigns/"+refID+"/frontier")
	if size := fmt.Sprintf(`{"size":%d,`, len(direct.ParetoFront())); !bytes.HasPrefix(wantFrontier, []byte(size)) {
		t.Fatalf("the rendered direct frontier %s is not ParetoFront()'s %s…", wantFrontier, size)
	}

	// Slowed enough that the drain lands mid-campaign.
	slow := ea.EvaluatorFunc(func(ctx context.Context, g ea.Genome) (ea.Fitness, error) {
		time.Sleep(8 * time.Millisecond)
		return sur.Evaluate(ctx, g)
	})
	lc, err := cluster.NewLocalCluster(3, cluster.EvalHandler(slow), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := lc.Close(); err != nil {
			t.Logf("fleet close: %v", err)
		}
	})
	newSrv := func(dir string) (*service.Service, *httptest.Server) {
		return newTestServer(t, func(cfg *service.Config) {
			cfg.Evaluator = &cluster.Evaluator{Client: lc.Scheduler}
			cfg.CheckpointDir = dir
		})
	}
	check := func(how, base, id string) {
		t.Helper()
		got, err := hpo.LoadCampaign(bytes.NewReader(getBytes(t, base+"/v1/campaigns/"+id+"/result")))
		if err != nil {
			t.Fatal(err)
		}
		if err := sameRuns(got, direct); err != nil {
			t.Errorf("%s: the served records differ from hpo.RunCampaign's: %v", how, err)
		}
		if f := getBytes(t, base+"/v1/campaigns/"+id+"/frontier"); !bytes.Equal(f, wantFrontier) {
			t.Errorf("%s: /frontier differs from the direct ParetoFront():\nserved: %s\ndirect: %s", how, f, wantFrontier)
		}
	}

	_, srv := newSrv("")
	st := postCampaign(t, srv.URL, string(body))
	waitStatusHTTP(t, srv.URL, st.ID, service.StateDone)
	check("uninterrupted", srv.URL, st.ID)

	dir := t.TempDir()
	svc1, srv1 := newSrv(dir)
	st = postCampaign(t, srv1.URL, string(body))
	waitGensDone(t, srv1.URL, st.ID, 1)
	drainCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := svc1.Drain(drainCtx); err != nil {
		t.Fatal(err)
	}
	if before := soleCampaign(t, svc1, "alice").Status(); before.State != service.StateSuspended || before.GensDone >= *spec.Generations {
		t.Fatalf("after drain: %+v, want suspended mid-campaign", before)
	}
	svc2, srv2 := newSrv(dir)
	if n, err := svc2.Restore(); err != nil || n != 1 {
		t.Fatalf("restore: %d campaigns, err %v", n, err)
	}
	waitStatusHTTP(t, srv2.URL, st.ID, service.StateDone)
	check("bounced", srv2.URL, st.ID)
}

// heldEvaluator scores with the surrogate, but holds every genome in
// held until the context ends, and lets only budget other evaluations
// through before holding those too.
type heldEvaluator struct {
	inner  ea.Evaluator
	held   map[string]bool
	budget int64
}

func (h *heldEvaluator) Evaluate(ctx context.Context, g ea.Genome) (ea.Fitness, error) {
	if h.held[ea.GenomeKey(g)] || atomic.AddInt64(&h.budget, -1) < 0 {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return h.inner.Evaluate(ctx, g)
}

// TestStaggeredLaneBounce bounces a campaign whose lanes sit at different
// generations: run 1 is held in generation 0 while runs 0 and 2 get a
// budget that strands them part-way.  The drain's checkpoint must hold
// every generation any lane completed, the restored service must resume
// every lane from its own generation — not from gens_done, which is
// still 0 — and the finished campaign must serve the bytes of one that
// was never interrupted.
func TestStaggeredLaneBounce(t *testing.T) {
	const pop, gens = 6, 4
	spec := service.Spec{
		Tenant: "alice", Name: "stagger", Runs: 3, PopSize: pop, Generations: intp(gens),
		BaseSeed: 77, Parallelism: 3,
	}
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	sur := surrogate.NewEvaluator(surrogate.Config{Seed: 2023})

	// Reference: uninterrupted.
	_, refSrv := newTestServer(t, nil)
	refSt := postCampaign(t, refSrv.URL, string(body))
	waitStatusHTTP(t, refSrv.URL, refSt.ID, service.StateDone)

	// Run 1's initial population is the first draw from its seed.
	held := map[string]bool{}
	rng := rand.New(rand.NewSource(spec.BaseSeed + 1))
	for _, ind := range ea.RandomPopulation(rng, hpo.PaperRepresentation().Bounds, pop, 0) {
		held[ea.GenomeKey(ind.Genome)] = true
	}
	dir := t.TempDir()
	svc1, srv1 := newTestServer(t, func(cfg *service.Config) {
		// 5 populations between two lanes that need 5 each to finish: one
		// of them completes at least two rounds, and they cannot both end.
		cfg.Evaluator = &heldEvaluator{inner: sur, held: held, budget: 5 * pop}
		cfg.CheckpointDir = dir
		cfg.DisableMemo = true
	})
	st := postCampaign(t, srv1.URL, string(body))
	ahead := func(st service.Status) bool {
		return len(st.RunGens) == 3 && (st.RunGens[0] >= 1 || st.RunGens[2] >= 1)
	}
	for i := 0; !ahead(st); i++ {
		if i == 4000 {
			t.Fatalf("no lane ever got ahead: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
		st = getJSONStatus(t, srv1.URL, st.ID)
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := svc1.Drain(drainCtx); err != nil {
		t.Fatal(err)
	}
	c1 := soleCampaign(t, svc1, "alice")
	before := c1.Status()
	if before.State != service.StateSuspended || before.GensDone != 0 || before.RunGens[1] != -1 {
		t.Fatalf("after drain: %+v, want suspended with run 1 still in generation 0", before)
	}
	if !ahead(before) {
		t.Fatalf("after drain: %+v, want a lane ahead of gens_done", before)
	}
	if got := terminalEvents(c1); len(got) != 1 || got[0] != "suspended" {
		t.Fatalf("terminal events %v, want exactly one suspended", got)
	}
	if got := generationEvents(c1); len(got) != 0 {
		t.Fatalf("generation events %v while run 1 never finished generation 0", got)
	}

	svc2, srv2 := newTestServer(t, func(cfg *service.Config) {
		cfg.CheckpointDir = dir
		cfg.DisableMemo = true
	})
	if n, err := svc2.Restore(); err != nil || n != 1 {
		t.Fatalf("restore: %d campaigns, err %v", n, err)
	}
	c2 := soleCampaign(t, svc2, "alice")
	waitState(t, c2, service.StateDone)

	// Each lane picked up at its own generation: the second service
	// evaluated exactly the rounds the checkpoint did not hold.
	want := 0
	for _, g := range before.RunGens {
		want += (gens - g) * pop
	}
	if got := svc2.EvaluationsTotal(); got != int64(want) {
		t.Errorf("restored service evaluated %d individuals, want %d (lanes were at %v of %d)",
			got, want, before.RunGens, gens)
	}
	if got := generationEvents(c2); len(got) != gens+1 {
		t.Errorf("generation events after restore %v, want 0..%d", got, gens)
	} else {
		for i, g := range got {
			if g != i {
				t.Errorf("generation events after restore %v, want ascending from 0", got)
				break
			}
		}
	}
	for _, doc := range []string{"frontier", "lcurve"} {
		got := getBytes(t, srv2.URL+"/v1/campaigns/"+c2.ID+"/"+doc)
		ref := getBytes(t, refSrv.URL+"/v1/campaigns/"+refSt.ID+"/"+doc)
		if !bytes.Equal(got, ref) {
			t.Errorf("%s diverged after the staggered bounce:\nuninterrupted: %s\nresumed:       %s", doc, ref, got)
		}
	}
}

// TestLaneFailureSingleTerminalEvent restores a checkpoint whose run 1
// the replay refuses while its siblings are mid-evaluation: the campaign
// must fail once, with the failing lane's error naming the run, the
// generation and the position, and every lane must be gone when it does.
func TestLaneFailureSingleTerminalEvent(t *testing.T) {
	for _, tc := range []struct {
		name string
		// logged is how many generations every run's log holds; damage
		// makes run 1's log one its search would not have written.
		logged int
		damage func(t *testing.T, res *hpo.CampaignResult, cfg hpo.CampaignConfig)
		want   string
	}{
		{"population size", 1, func(t *testing.T, res *hpo.CampaignResult, cfg hpo.CampaignConfig) {
			cfg.Runs, cfg.PopSize = 1, 5
			odd, err := hpo.RunCampaign(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			res.Runs[1] = odd.Runs[0]
		}, "run 1: nsga2: generation 0: the log has 5 individuals"},
		{"flipped genome bit", 2, func(t *testing.T, res *hpo.CampaignResult, _ hpo.CampaignConfig) {
			g := res.Runs[1].Generations[1].Evaluated[0].Genome
			g[0] = math.Float64frombits(math.Float64bits(g[0]) ^ 1)
		}, "run 1: nsga2: generation 1, position 0:"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := service.Spec{
				Tenant: "alice", Name: "broken", Runs: 3, PopSize: 4, Generations: intp(2), BaseSeed: 5,
			}
			cfg := hpo.CampaignConfig{
				Runs: 3, PopSize: 4, Generations: tc.logged - 1,
				Evaluator: surrogate.NewEvaluator(surrogate.Config{Seed: 2023}), BaseSeed: 5,
			}
			res, err := hpo.RunCampaign(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			tc.damage(t, res, cfg)
			dir := t.TempDir()
			writeCheckpoint(t, dir, "00000000-0000-4000-8000-000000000002", spec, service.StateSuspended, res)

			be := &blockingEvaluator{release: make(chan struct{})}
			svc := newTestService(t, func(cfg *service.Config) {
				cfg.Evaluator = be
				cfg.CheckpointDir = dir
			})
			if n, err := svc.Restore(); err != nil || n != 1 {
				t.Fatalf("restore: %d campaigns, err %v", n, err)
			}
			c := soleCampaign(t, svc, "alice")
			waitState(t, c, service.StateFailed)
			if got := waitTerminalEvents(t, c); len(got) != 1 || got[0] != "failed" {
				t.Fatalf("terminal events %v, want exactly one failed", got)
			}
			if st := c.Status(); !strings.Contains(st.Error, tc.want) {
				t.Fatalf("error %q, want one containing %q", st.Error, tc.want)
			}
			// Nothing is left running: the drain has no one to wait for.
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := svc.Drain(ctx); err != nil {
				t.Fatal(err)
			}
			if got := terminalEvents(c); len(got) != 1 {
				t.Fatalf("terminal events after drain %v, want still one", got)
			}
		})
	}
}

// TestLaneCancelSingleTerminalEvent cancels a campaign with every lane
// blocked in an evaluation.
func TestLaneCancelSingleTerminalEvent(t *testing.T) {
	be := &blockingEvaluator{release: make(chan struct{})}
	svc := newTestService(t, func(cfg *service.Config) { cfg.Evaluator = be })
	c, err := svc.Create(service.Spec{Tenant: "alice", Runs: 4, PopSize: 2, Generations: intp(1), Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; atomic.LoadInt64(&be.calls) < 8; i++ {
		if i == 4000 {
			t.Fatalf("only %d of 8 evaluations in flight: lanes are not all running", atomic.LoadInt64(&be.calls))
		}
		time.Sleep(time.Millisecond)
	}
	if err := svc.Cancel(c.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, c, service.StateCancelled)
	if got := waitTerminalEvents(t, c); len(got) != 1 || got[0] != "cancelled" {
		t.Fatalf("terminal events %v, want exactly one cancelled", got)
	}
	// Still one once every lane is gone.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if got := terminalEvents(c); len(got) != 1 {
		t.Fatalf("terminal events %v, want exactly one cancelled", got)
	}
}
