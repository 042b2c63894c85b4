package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset/stream"
	"repro/internal/deepmd"
	"repro/internal/descriptor"
	"repro/internal/ea"
	"repro/internal/hpo"
	"repro/internal/neighbor"
	"repro/internal/nn"
	"repro/internal/nn/blas"
	"repro/internal/nsga2"
	"repro/internal/surrogate"
)

// perLayer derives the per-layer metrics that come from the workload
// itself: counters and event times from the untraced window (so the
// tracer's own allocations stay out of them) and spans from the traced
// one.
func perLayer(plain, traced *runResult, tr *tracer) []metric {
	var admit, create, lag, ckpt []float64
	lastPost := map[time.Time]time.Time{} // wave start -> its last POST
	for _, c := range plain.campaigns {
		created, ok1 := c.event("created")
		admitted, ok2 := c.event("admitted")
		if ok1 && ok2 {
			admit = append(admit, ms(admitted.Time.Sub(created.Time)))
		}
		create = append(create, ms(c.created.Sub(c.posted)))
		for _, l := range c.lags {
			lag = append(lag, ms(l))
		}
		ckpt = append(ckpt, float64(c.ckptBytes))
		if c.posted.After(lastPost[c.due]) {
			lastPost[c.due] = c.posted
		}
	}
	var late []float64
	for due, posted := range lastPost {
		late = append(late, ms(posted.Sub(due)))
	}

	b, a := plain.before, plain.after
	evals := float64(plain.evals())
	tasks := float64(a.sched.Submitted - b.sched.Submitted)
	hits, misses := a.hits-b.hits, a.misses-b.misses
	nc := len(plain.campaigns)
	plainWall, _ := plain.campaignWall()
	tracedWall, _ := traced.campaignWall()
	out := []metric{
		{"service.admit_wait_ms", "ms", median(admit), len(admit)},
		{"service.create_ms", "ms", median(create), len(create)},
		{"service.event_lag_ms", "ms", median(lag), len(lag)},
		{"service.checkpoint_bytes", "B", median(ckpt), len(ckpt)},
		{"service.retained_heap_mb", "MB", float64(plain.retained) / 1e6, 1},
		{"service.retained_kb_per_campaign", "kB", (float64(plain.retained) - float64(b.mem.HeapAlloc)) / 1e3 / float64(nc), nc},
		{"ea.memo_hit_frac", "frac", hits / (hits + misses), int(hits + misses)},
		{"ea.memo_entries", "count", a.memo, 1},
		{"cluster.frames_per_task", "count", float64(a.wire.FramesIn+a.wire.FramesOut-b.wire.FramesIn-b.wire.FramesOut) / tasks, int(tasks)},
		{"cluster.wire_bytes_per_task", "B", float64(a.wire.BytesIn+a.wire.BytesOut-b.wire.BytesIn-b.wire.BytesOut) / tasks, int(tasks)},
		{"cluster.tasks_submitted", "count", tasks, 1},
		{"cluster.tasks_failed", "count", float64(a.sched.Failed - b.sched.Failed), 1},
		{"cluster.tasks_reassigned", "count", float64(a.sched.Reassigned - b.sched.Reassigned), 1},
		{"cluster.tasks_stale", "count", float64(a.sched.Stale - b.sched.Stale), 1},
		{"proc.cpu_s_per_kevals", "s", (a.cpu - b.cpu).Seconds() / evals * 1e3, int(evals)},
		{"proc.allocs_per_eval", "count", float64(a.mem.Mallocs-b.mem.Mallocs) / evals, int(evals)},
		{"proc.alloc_kb_per_eval", "kB", float64(a.mem.TotalAlloc-b.mem.TotalAlloc) / 1e3 / evals, int(evals)},
		{"proc.gc_pause_ms", "ms", float64(a.mem.PauseTotalNs-b.mem.PauseTotalNs) / 1e6, int(a.mem.NumGC - b.mem.NumGC)},
		{"proc.peak_rss_mb", "MB", float64(a.rssKB) / 1e3, 1},
		{"bench.post_lateness_ms", "ms", median(late), len(late)},
		{"bench.trace_overhead_frac", "frac", tracedWall/plainWall - 1, len(traced.campaigns)},
	}
	return append(out, tr.spanMetrics(traced.wl.workers, traced.window)...)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// timed runs f reps times and returns the median duration in
// nanoseconds.
func timed(reps int, f func(i int)) float64 {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		f(i)
		ds[i] = float64(time.Since(t0))
	}
	return median(ds)
}

// layerPass times standalone calls into each layer's public functions.
// It does not depend on the workload being traced, so its numbers read
// the same in every traced run of one seed; real is the real-trainer
// workload, whose dataset and training size the trainer layers reuse.
func layerPass(seed int64, dir string, real workload) ([]metric, error) {
	sur := surrogate.NewEvaluator(surrogate.Config{Seed: seed})
	search, direct, err := searchLayers(sur, seed)
	if err != nil {
		return nil, err
	}
	fleet, err := clusterLayers()
	if err != nil {
		return nil, err
	}
	front := direct.ParetoFront()
	trainer, err := trainerLayers(seed, dir, real, front)
	if err != nil {
		return nil, err
	}
	return append(append(search, fleet...), trainer...), nil
}

// searchLayers times hpo, nsga2, ea and the surrogate on the paper
// campaign run directly: the plain single-process baseline.
func searchLayers(sur *surrogate.Evaluator, seed int64) ([]metric, *hpo.CampaignResult, error) {
	base := baseSeed(seed, 255, 0)
	var direct *hpo.CampaignResult
	var err error
	wall := timed(3, func(i int) {
		if res, e := directCampaign(sur, paper, base+int64(16*i), nil); e != nil {
			err = e
		} else {
			direct = res
		}
	})
	if err != nil {
		return nil, nil, err
	}

	// One more campaign with the evaluator and the generation boundary
	// timed: a generation's self time is its interval minus what the
	// evaluations cover; its parents+offspring pool is the recorded
	// population the nsga2 kernels are timed on.
	var mu sync.Mutex
	var spans [][2]int64
	probe := ea.EvaluatorFunc(func(ctx context.Context, g ea.Genome) (ea.Fitness, error) {
		t0 := time.Now().UnixNano()
		fit, err := sur.Evaluate(ctx, g)
		t1 := time.Now().UnixNano()
		mu.Lock()
		spans = append(spans, [2]int64{t0, t1})
		mu.Unlock()
		return fit, err
	})
	var genSelf []float64
	var parents ea.Population
	var pool200, pool1000 ea.Population
	last := time.Now().UnixNano()
	_, err = directCampaign(probe, paper, base, func(run, gen int, evaluated, survivors ea.Population) {
		now := time.Now().UnixNano()
		mu.Lock()
		genSelf = append(genSelf, (float64(now-last)-union(spans, last, now))/1e6)
		spans = spans[:0]
		mu.Unlock()
		last = now
		if gen == paper.gens {
			pool200 = append(parents.Clone(), evaluated.Clone()...)
			pool1000 = append(pool1000, pool200...)
		}
		parents = survivors
	})
	if err != nil {
		return nil, nil, err
	}

	var doc bytes.Buffer
	save := timed(5, func(int) {
		doc.Reset()
		if e := hpo.SaveCampaign(&doc, direct); e != nil {
			err = e
		}
	})
	load := timed(5, func(int) {
		if _, e := hpo.LoadCampaign(bytes.NewReader(doc.Bytes())); e != nil {
			err = e
		}
	})
	if err != nil {
		return nil, nil, err
	}

	var fronts200 []ea.Population
	sort200 := timed(50, func(int) { fronts200 = nsga2.RankOrdinalSort(pool200) })
	sort1000 := timed(10, func(int) { nsga2.RankOrdinalSort(pool1000) })
	crowd := timed(50, func(int) { nsga2.CrowdingDistanceAll(fronts200) })
	hvTime := timed(50, func(int) { nsga2.Hypervolume2D(pool200, hvRef) })

	var genomes []ea.Genome
	for _, run := range direct.Runs {
		for _, gen := range run.Generations {
			for _, ind := range gen.Evaluated {
				genomes = append(genomes, ind.Genome)
			}
		}
	}
	surEval := timed(5, func(int) {
		for _, g := range genomes {
			if _, e := sur.EvaluateGenome(g); e != nil {
				err = e
			}
		}
	}) / float64(len(genomes))
	if err != nil {
		return nil, nil, err
	}

	// Memo: every genome once (miss path, inner evaluator free), then
	// every genome again (hit path).
	rng := rand.New(rand.NewSource(seed))
	keys := make([]ea.Genome, 50000)
	for i := range keys {
		keys[i] = ea.Genome{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
	}
	free := ea.EvaluatorFunc(func(context.Context, ea.Genome) (ea.Fitness, error) { return ea.Fitness{1, 1}, nil })
	var miss, hit []float64
	for rep := 0; rep < 3; rep++ {
		memo := ea.NewMemoEvaluator(free)
		for _, dst := range []*[]float64{&miss, &hit} {
			t0 := time.Now()
			for _, g := range keys {
				if _, e := memo.Evaluate(context.Background(), g); e != nil {
					return nil, nil, e
				}
			}
			*dst = append(*dst, float64(time.Since(t0))/float64(len(keys)))
		}
	}

	return []metric{
		{"hpo.direct_campaign_wall_s", "s", wall / 1e9, 3},
		{"hpo.gen_self_ms", "ms", median(genSelf), len(genSelf)},
		{"hpo.save_campaign_ms", "ms", save / 1e6, 5},
		{"hpo.save_campaign_bytes", "B", float64(doc.Len()), 1},
		{"hpo.load_campaign_ms", "ms", load / 1e6, 5},
		{"nsga2.rank_sort_us_n200", "us", sort200 / 1e3, 50},
		{"nsga2.rank_sort_us_n1000", "us", sort1000 / 1e3, 10},
		{"nsga2.crowding_us_n200", "us", crowd / 1e3, 50},
		{"nsga2.hypervolume_us_n200", "us", hvTime / 1e3, 50},
		{"nsga2.final_hypervolume", "eV2/A/atom", nsga2.Hypervolume2D(direct.ParetoFront(), hvRef), 1},
		{"surrogate.eval_ns", "ns", surEval, len(genomes)},
		{"ea.memo_miss_ns", "ns", median(miss), len(keys)},
		{"ea.memo_hit_ns", "ns", median(hit), len(keys)},
	}, direct, nil
}

// clusterLayers times a task round trip through a 2-worker LocalCluster
// whose handler returns at once, with 1 and with 100 submitters.
func clusterLayers() ([]metric, error) {
	echo := ea.EvaluatorFunc(func(context.Context, ea.Genome) (ea.Fitness, error) { return ea.Fitness{1, 1}, nil })
	lc, err := cluster.NewLocalCluster(2, cluster.EvalHandler(echo), 0)
	if err != nil {
		return nil, err
	}
	defer lc.Close()
	ev := &cluster.Evaluator{Client: lc.Client}
	g := ea.Genome{1, 2, 3, 4, 5, 6, 7}
	rtt := func(submitters, each int) ([]float64, error) {
		out := make([][]float64, submitters)
		errs := make([]error, submitters)
		var wg sync.WaitGroup
		for s := 0; s < submitters; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					t0 := time.Now()
					if _, err := ev.Evaluate(context.Background(), g); err != nil {
						errs[s] = err
						return
					}
					out[s] = append(out[s], float64(time.Since(t0))/1e3)
				}
			}(s)
		}
		wg.Wait()
		var all []float64
		for s := range out {
			if errs[s] != nil {
				return nil, errs[s]
			}
			all = append(all, out[s]...)
		}
		return all, nil
	}
	if _, err := rtt(1, 200); err != nil { // warm the connections
		return nil, err
	}
	c1, err := rtt(1, 4000)
	if err != nil {
		return nil, err
	}
	c100, err := rtt(100, 100)
	if err != nil {
		return nil, err
	}
	return []metric{
		{"cluster.echo_rtt_us_c1", "us", median(c1), len(c1)},
		{"cluster.echo_rtt_us_c100", "us", median(c100), len(c100)},
	}, nil
}

// trainerLayers times the real evaluation path and the numeric kernels
// under it on the dataset the real_trainer_campaign uses.
func trainerLayers(seed int64, dir string, real workload, front ea.Population) ([]metric, error) {
	w, closers, err := realEvaluator(seed, dir, real, nil)
	defer func() {
		for _, c := range closers {
			_ = c.Close()
		}
	}()
	if err != nil {
		return nil, err
	}
	inner := w.Trainer
	var trainDur time.Duration
	w.Trainer = hpo.TrainerFunc(func(ctx context.Context, inputPath, runDir string) error {
		t0 := time.Now()
		defer func() { trainDur = time.Since(t0) }()
		return inner.Train(ctx, inputPath, runDir)
	})
	var evalWall, overhead []float64
	for i := 0; i < 3 && i < len(front); i++ {
		t0 := time.Now()
		if _, err := w.Evaluate(context.Background(), front[i].Genome); err != nil {
			return nil, fmt.Errorf("real evaluation: %w", err)
		}
		total := time.Since(t0)
		evalWall = append(evalWall, ms(total))
		overhead = append(overhead, ms(total-trainDur))
	}

	train, err := stream.Open(filepath.Join(dir, "data", "train"), stream.Options{})
	if err != nil {
		return nil, err
	}
	defer train.Close()
	val, err := stream.Open(filepath.Join(dir, "data", "val"), stream.Options{})
	if err != nil {
		return nil, err
	}
	defer val.Close()
	const rcut = 8.0
	steps := 2 * real.trainSteps
	model, err := deepmd.NewModel(rand.New(rand.NewSource(seed)), deepmd.ModelConfig{
		Descriptor: descriptor.Config{
			RCut: rcut, RCutSmth: 2, EmbeddingSizes: []int{25, 50, 100}, AxisNeurons: 4,
			Activation: nn.Tanh, NumSpecies: 3, NeighborNorm: float64(real.atoms - 1),
		},
		FittingSizes: []int{240, 240, 240}, FittingActivation: nn.Tanh, NumSpecies: 3,
	})
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if _, err := deepmd.TrainSource(context.Background(), model, train, val, deepmd.TrainConfig{
		Steps: steps, BatchSize: 1, StartLR: 0.004, StopLR: 3e-5, ScaleByWorker: "none",
		Workers: 6, DispFreq: steps, ValFrames: real.valFrames, Seed: seed,
	}, io.Discard); err != nil {
		return nil, err
	}
	step := ms(time.Since(t0)) / float64(steps)
	evalErrs := timed(5, func(int) {
		if _, _, e := deepmd.EvalErrorsSource(model, val, real.valFrames); e != nil {
			err = e
		}
	})
	if err != nil {
		return nil, err
	}
	fr, err := train.Frame(0)
	if err != nil {
		return nil, err
	}
	types := train.AtomTypes()
	energyForces := timed(20, func(int) { model.EnergyForces(fr.Coord, types, fr.Box) })
	forwardEnv := timed(200, func(i int) { model.Desc.Release(model.Desc.Forward(fr.Coord, types, fr.Box, i%len(types))) })
	var nl neighbor.List
	build := timed(200, func(int) { nl.Build(fr.Coord, fr.Box, rcut, 0.5) })

	// Paper fitting-layer shape: one 240x240 dense layer over a tile of
	// 16 atoms.
	const n, in, out = 16, 240, 240
	rng := rand.New(rand.NewSource(seed))
	fill := func(k int) []float64 {
		v := make([]float64, k)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	x, wt, bias, g := fill(n*in), fill(out*in), fill(out), fill(n*out)
	pre, act, dx, gw, gb := make([]float64, n*out), make([]float64, n*out), make([]float64, n*in), make([]float64, out*in), make([]float64, out)
	fwd := timed(300, func(int) { blas.GemmBiasAct(pre, act, x, wt, bias, n, in, out, math.Tanh) })
	bwd := timed(300, func(int) {
		blas.GemmNN(dx, g, wt, n, in, out)
		blas.AccumGrad(gw, gb, g, x, n, in, out)
	})
	const flops = 2.0 * n * in * out
	const bytesMoved = 8.0 * (n*in + out*in + out + 2*n*out) // x, w, bias read; preact, out written

	hit := timed(20000, func(int) {
		if _, e := train.Frame(0); e != nil {
			err = e
		}
	})
	cold, err2 := stream.Open(filepath.Join(dir, "data", "train"), stream.Options{CacheBytes: 1})
	if err2 != nil {
		return nil, err2
	}
	defer cold.Close()
	miss := timed(400, func(i int) {
		if _, e := cold.Frame(i % cold.Len()); e != nil {
			err = e
		}
	})
	if err != nil {
		return nil, err
	}

	return []metric{
		{"hpo.workflow_overhead_ms", "ms", median(overhead), len(overhead)},
		{"deepmd.eval_wall_ms", "ms", median(evalWall), len(evalWall)},
		{"deepmd.train_step_ms", "ms", step, steps},
		{"deepmd.eval_errors_ms", "ms", evalErrs / 1e6, 5},
		{"deepmd.energy_forces_ms", "ms", energyForces / 1e6, 20},
		{"descriptor.forward_env_us", "us", forwardEnv / 1e3, 200},
		{"neighbor.build_us", "us", build / 1e3, 200},
		{"nn.blas.gemm_fwd_gflops", "GFLOP/s", flops / fwd, 300},
		{"nn.blas.gemm_bwd_gflops", "GFLOP/s", 2 * flops / bwd, 300},
		{"nn.blas.gemm_ops_per_byte_computed", "FLOP/B", flops / bytesMoved, 1},
		{"dataset.stream.frame_hit_ns", "ns", hit, 20000},
		{"dataset.stream.frame_miss_us", "us", miss / 1e3, 400},
	}, nil
}
