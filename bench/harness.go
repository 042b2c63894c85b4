package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/dataset/stream"
	"repro/internal/ea"
	"repro/internal/hpo"
	"repro/internal/md"
	"repro/internal/service"
	"repro/internal/surrogate"
)

// stack is the system under test: a LocalCluster fleet behind the
// campaign service, reachable only through its HTTP listener.
type stack struct {
	lc      *cluster.LocalCluster
	srv     *http.Server
	url     string
	ckpt    string
	sur     *surrogate.Evaluator // nil on the real-trainer backend
	closers []io.Closer
}

// realEvaluator builds the shipped real-trainer evaluation path: an
// AlCl3/KCl trajectory of wl.atoms atoms at the paper's density from
// dataset.Generate, saved and reopened through stream.Open defaults,
// behind hpo.WorkflowEvaluator with the default template (the paper
// network) and hpo.RealTrainer defaults (trainer threads = GOMAXPROCS, 6
// simulated data-parallel workers).
func realEvaluator(seed int64, dir string, wl workload, tr *tracer) (*hpo.WorkflowEvaluator, []io.Closer, error) {
	rng := rand.New(rand.NewSource(seed))
	unit := []md.Species{md.Al, md.K, md.K, md.K, md.Cl, md.Cl, md.Cl, md.Cl, md.Cl, md.Cl} // AlCl3 + 3 KCl
	species := make([]md.Species, wl.atoms)
	for i := range species {
		species[i] = unit[i%len(unit)]
	}
	box := 8.9 * math.Cbrt(float64(wl.atoms)/20)
	data := dataset.Generate(rng, species, box, 498, md.NewPaperBMH(0.49*box), 0.5, 60, 5, 16)
	data.Shuffle(rng)
	train, val := data.Split(0.25)
	var srcs [2]*stream.Store
	var closers []io.Closer
	for i, part := range []*dataset.Dataset{train, val} {
		sub := filepath.Join(dir, "data", []string{"train", "val"}[i])
		if err := part.Save(sub, 8); err != nil {
			return nil, closers, err
		}
		st, err := stream.Open(sub, stream.Options{})
		if err != nil {
			return nil, closers, err
		}
		closers = append(closers, st)
		srcs[i] = st
	}
	work := filepath.Join(dir, "runs")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, closers, err
	}
	rt := &hpo.RealTrainer{Train: srcs[0], Val: srcs[1], StepsOverride: wl.trainSteps, ValFrames: wl.valFrames}
	return &hpo.WorkflowEvaluator{
		WorkDir: work, Template: wl.template,
		Steps: wl.trainSteps, DispFreq: wl.trainSteps, Seed: seed,
		TrainDir: filepath.Join(dir, "data", "train"), ValDir: filepath.Join(dir, "data", "val"),
		Trainer: tr.wrapTrainer(hpo.TrainerFunc(rt.TrainRun)),
	}, closers, nil
}

// replayEvaluator returns the surrogate's fitness after sleeping a scaled
// copy of the runtime the surrogate predicts for the genome; simulated
// failures return after their (short) runtime, as on Summit.
func replayEvaluator(sur *surrogate.Evaluator, div int64) ea.Evaluator {
	return ea.EvaluatorFunc(func(ctx context.Context, g ea.Genome) (ea.Fitness, error) {
		res, err := sur.EvaluateGenome(g)
		if err != nil {
			return nil, err
		}
		t := time.NewTimer(res.Runtime / time.Duration(div))
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if res.Failed {
			return nil, fmt.Errorf("replay: simulated training failure after %v", res.Runtime)
		}
		return ea.Fitness{res.EnergyLoss, res.ForceLoss}, nil
	})
}

// startStack builds the fleet and the service for wl under dir.  A
// non-nil tracer wraps the three evaluator seams; nothing else differs
// between a traced and an untraced stack.
func startStack(wl workload, seed int64, dir string, tr *tracer) (st *stack, err error) {
	st = &stack{ckpt: filepath.Join(dir, "checkpoints")}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	var worker ea.Evaluator
	switch wl.backend {
	case surrogateBackend:
		st.sur = surrogate.NewEvaluator(surrogate.Config{Seed: seed})
		worker = st.sur
	case replayBackend:
		st.sur = surrogate.NewEvaluator(surrogate.Config{Seed: seed})
		worker = replayEvaluator(st.sur, wl.replayDiv)
	case realBackend:
		var w *hpo.WorkflowEvaluator
		w, st.closers, err = realEvaluator(seed, dir, wl, tr)
		if err != nil {
			return st, fmt.Errorf("real evaluator: %w", err)
		}
		worker = w
	}
	st.lc, err = cluster.NewLocalCluster(wl.workers, cluster.EvalHandler(tr.wrapEvaluator("evaluate", worker)), 0)
	if err != nil {
		return st, fmt.Errorf("local fleet: %w", err)
	}
	svc, err := service.New(service.Config{
		Evaluator:            tr.wrapEvaluator("dispatch", &cluster.Evaluator{Client: st.lc.Client}),
		CheckpointDir:        st.ckpt,
		MaxInFlightPerTenant: wl.maxInFlight,
	})
	if err != nil {
		return st, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return st, err
	}
	st.srv = &http.Server{Handler: svc.Handler()}
	st.url = "http://" + ln.Addr().String()
	go func() { _ = st.srv.Serve(ln) }() // returns ErrServerClosed from close
	return st, nil
}

func (st *stack) close() {
	if st.srv != nil {
		_ = st.srv.Close() // listener teardown at exit; nothing to report to
	}
	if st.lc != nil {
		_ = st.lc.Close()
	}
	for _, c := range st.closers {
		_ = c.Close()
	}
}

// The driver speaks only the service's HTTP/JSON contract, so these are
// the wire shapes, not the service's Go types.
type specJSON struct {
	Tenant      string `json:"tenant"`
	Runs        int    `json:"runs"`
	PopSize     int    `json:"pop_size"`
	Generations int    `json:"generations"`
	BaseSeed    int64  `json:"base_seed"`
	Parallelism int    `json:"parallelism"`
}

type eventJSON struct {
	Time time.Time `json:"time"`
	Type string    `json:"type"`
	Gen  int       `json:"gen"`
}

type statusJSON struct {
	ID          string `json:"id"`
	State       string `json:"state"`
	Evaluations int    `json:"evaluations"`
	Error       string `json:"error"`
}

// campaignRec is everything the driver observed about one campaign.
type campaignRec struct {
	id, tenant string
	shape      shape
	seed       int64
	due        time.Time // wave start: when the campaign was due to be sent
	posted     time.Time // POST written
	created    time.Time // POST response read
	events     []eventJSON
	lags       []time.Duration // receipt - Event.Time for events delivered live
	status     statusJSON
	result     *hpo.CampaignResult
	ckptBytes  int64
}

func (c *campaignRec) event(typ string) (eventJSON, bool) {
	for _, e := range c.events {
		if e.Type == typ {
			return e, true
		}
	}
	return eventJSON{}, false
}

// client is one closed-loop driver connection.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}}
}

func (c *client) do(ctx context.Context, method, path string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

func (c *client) post(ctx context.Context, rec *campaignRec) error {
	body, err := json.Marshal(specJSON{
		Tenant: rec.tenant, Runs: rec.shape.runs, PopSize: rec.shape.pop,
		Generations: rec.shape.gens, BaseSeed: rec.seed, Parallelism: rec.shape.par,
	})
	if err != nil {
		return err
	}
	rec.posted = time.Now()
	data, err := c.do(ctx, "POST", "/v1/campaigns", body, http.StatusCreated)
	rec.created = time.Now()
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &rec.status); err != nil {
		return err
	}
	rec.id = rec.status.ID
	return nil
}

// follow long-polls the campaign's event feed until a terminal event.
// Events carry the service's own timestamps, so following late (the
// burst follows 16 campaigns over one connection) loses nothing.
func (c *client) follow(ctx context.Context, rec *campaignRec) error {
	var after uint64
	for {
		sent := time.Now()
		data, err := c.do(ctx, "GET", "/v1/campaigns/"+rec.id+"/events?wait_ms=60000&after="+strconv.FormatUint(after, 10), nil, http.StatusOK)
		if err != nil {
			return err
		}
		recv := time.Now()
		var batch struct {
			Events []eventJSON `json:"events"`
			Next   uint64      `json:"next"`
		}
		if err := json.Unmarshal(data, &batch); err != nil {
			return err
		}
		after = batch.Next
		for _, e := range batch.Events {
			rec.events = append(rec.events, e)
			if e.Time.After(sent) {
				rec.lags = append(rec.lags, recv.Sub(e.Time))
			}
			switch e.Type {
			case "done", "failed", "cancelled", "suspended":
				return nil
			}
		}
	}
}

// driver generates the load: wl.clients goroutines, one connection each.
type driver struct {
	wl      workload
	seed    int64
	clients []*client
	slots   map[string]int // campaigns posted so far per tenant
}

func newDriver(url string, wl workload, seed int64) *driver {
	d := &driver{wl: wl, seed: seed, slots: map[string]int{}}
	for i := 0; i < wl.clients; i++ {
		d.clients = append(d.clients, newClient(url))
	}
	return d
}

// lane is the seed lane of a tenant: its own index, or its twin's.
func (d *driver) lane(tenant string) int {
	if t, ok := d.wl.twinOf[tenant]; ok {
		tenant = t
	}
	for i, t := range d.wl.tenants {
		if t == tenant {
			return i
		}
	}
	return 0
}

// wave posts perTenant campaigns of shape sh for every tenant at once
// and returns when all are terminal, or with ctx's error once ctx is
// done.  Tenants are dealt to clients round robin; each client first
// posts all its campaigns (interleaving its tenants), then follows them
// one after another.
func (d *driver) wave(ctx context.Context, sh shape, perTenant int) ([]*campaignRec, error) {
	plans := make([][]*campaignRec, len(d.clients))
	var all []*campaignRec
	for k := 0; k < perTenant; k++ {
		for ti, tenant := range d.wl.tenants {
			rec := &campaignRec{tenant: tenant, shape: sh, seed: baseSeed(d.seed, d.lane(tenant), d.slots[tenant])}
			d.slots[tenant]++
			ci := ti % len(d.clients)
			plans[ci] = append(plans[ci], rec)
			all = append(all, rec)
		}
	}
	due := time.Now()
	errs := make([]error, len(d.clients))
	var wg sync.WaitGroup
	for ci, c := range d.clients {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			for _, rec := range plans[ci] {
				rec.due = due
				if err := c.post(ctx, rec); err != nil {
					errs[ci] = err
					return
				}
			}
			for _, rec := range plans[ci] {
				if err := c.follow(ctx, rec); err != nil {
					errs[ci] = err
					return
				}
			}
		}(ci, c)
	}
	wg.Wait()
	return all, errors.Join(errs...)
}

// counters is a point-in-time reading of everything the per-layer
// metrics difference across the window.
type counters struct {
	mem    runtime.MemStats
	cpu    time.Duration
	rssKB  int64 // peak so far
	sched  cluster.Stats
	wire   cluster.WireStats
	hits   float64
	misses float64
	memo   float64
}

func (st *stack) counters(ctx context.Context, c *client) (counters, error) {
	var out counters
	runtime.ReadMemStats(&out.mem)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return out, err
	}
	out.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	out.rssKB = ru.Maxrss
	out.sched = st.lc.Scheduler.Stats()
	out.wire = st.lc.Scheduler.Wire()
	text, err := c.do(ctx, "GET", "/metrics", nil, http.StatusOK)
	if err != nil {
		return out, err
	}
	for _, line := range strings.Split(string(text), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, _ := strconv.ParseFloat(val, 64)
		switch name {
		case "repro_service_memo_hits_total":
			out.hits = v
		case "repro_service_memo_misses_total":
			out.misses = v
		case "repro_service_memo_entries":
			out.memo = v
		}
	}
	return out, nil
}

// runResult is one measured window plus what the checks found.
type runResult struct {
	wl        workload
	setup     float64 // seconds
	window    time.Duration
	campaigns []*campaignRec
	before    counters
	after     counters
	retained  uint64 // HeapAlloc after two GCs at window close

	attempted, failed int
	problems          []string // failed output checks
}

func (r *runResult) evals() int {
	n := 0
	for _, c := range r.campaigns {
		n += c.shape.evals()
	}
	return n
}

// campaignWall is the median wave start -> done over the window's
// campaigns, and how many finished.
func (r *runResult) campaignWall() (float64, int) {
	var walls []float64
	for _, c := range r.campaigns {
		if done, ok := c.event("done"); ok {
			walls = append(walls, done.Time.Sub(c.due).Seconds())
		}
	}
	return median(walls), len(walls)
}

// endToEndSpec is the end_to_end table of BENCHMARK.json, which
// bench_test.go pins to it: the metrics an untraced run reports, which
// direction is better, and bound, the share of the parent's median a
// metric may worsen by.
var endToEndSpec = []struct {
	name, unit string
	higher     bool
	bound      float64
}{
	{"setup_s", "s", false, 0.25},
	{"campaign_wall_s", "s", false, 0.25},
	{"gen_wall_ms", "ms", false, 0.25},
	{"evals_per_s", "1/s", true, 0.25},
}

// endToEnd computes the end-to-end metrics, in endToEndSpec's order.
func (r *runResult) endToEnd() []metric {
	var gens []float64
	for _, c := range r.campaigns {
		for i, e := range c.events {
			if e.Type == "generation" && i > 0 {
				gens = append(gens, ms(e.Time.Sub(c.events[i-1].Time)))
			}
		}
	}
	wall, finished := r.campaignWall()
	measured := map[string]metric{
		"setup_s":         {value: r.setup, n: 1},
		"campaign_wall_s": {value: wall, n: finished},
		"gen_wall_ms":     {value: median(gens), n: len(gens)},
		"evals_per_s":     {value: float64(r.evals()) / r.window.Seconds(), n: r.evals()},
	}
	out := make([]metric, len(endToEndSpec))
	for i, spec := range endToEndSpec {
		m := measured[spec.name]
		m.name, m.unit = spec.name, spec.unit
		out[i] = m
	}
	return out
}

// setUp starts a fresh stack under dir and runs the warm-up waves.
func setUp(ctx context.Context, wl workload, seed int64, dir string, tr *tracer) (*stack, *driver, error) {
	st, err := startStack(wl, seed, dir, tr)
	if err != nil {
		return nil, nil, err
	}
	d := newDriver(st.url, wl, seed)
	for i := 0; i < wl.warmWaves; i++ {
		recs, err := d.wave(ctx, wl.warm, wl.warmPerTenant)
		for _, rec := range recs {
			if _, ok := rec.event("done"); !ok && err == nil {
				err = fmt.Errorf("campaign %s did not finish", rec.id)
			}
		}
		if err != nil {
			st.close()
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return st, d, nil
}

// runWorkload sets up under dir, runs the workload's fixed work
// closed-loop and checks the outputs.  started is when the set-up
// began: process start for the first run of a process.  Every request
// the driver makes carries ctx, so a campaign that never finishes fails
// the run at ctx's deadline instead of hanging it.
func runWorkload(ctx context.Context, wl workload, seed int64, dir string, started time.Time, tr *tracer) (*runResult, error) {
	st, d, err := setUp(ctx, wl, seed, dir, tr)
	if err != nil {
		return nil, err
	}
	setup := time.Since(started).Seconds()
	defer st.close()
	tr.reset()
	runtime.GC()
	runtime.GC() // the second cycle frees what sync.Pools still held through the first

	r := &runResult{wl: wl, setup: setup}
	if r.before, err = st.counters(ctx, d.clients[0]); err != nil {
		return nil, err
	}
	open := time.Now()
	for i := 0; i < wl.waves; i++ {
		recs, err := d.wave(ctx, wl.campaign, wl.perTenant)
		r.campaigns = append(r.campaigns, recs...)
		if err != nil {
			return nil, fmt.Errorf("wave %d: %w", i, err)
		}
	}
	r.window = time.Since(open)
	if r.after, err = st.counters(ctx, d.clients[0]); err != nil {
		return nil, err
	}
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	r.retained = mem.HeapAlloc

	if err := r.check(ctx, st); err != nil {
		return nil, err
	}
	return r, nil
}
