package hpo

import (
	"bytes"
	"context"
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/ea"
	"repro/internal/nsga2"
)

func TestContinueCampaignContinuesRuns(t *testing.T) {
	cfg := CampaignConfig{
		Runs: 2, PopSize: 15, Generations: 2,
		Evaluator:   persistEval,
		Parallelism: 4, AnnealFactor: 0.85, BaseSeed: 21,
	}
	first, err := RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Generations = 5
	var observed int
	cfg.Observer = func(_, gen int, _, _ ea.Population) {
		if gen < 3 {
			t.Errorf("observer saw replayed generation %d", gen)
		}
		observed++
	}
	resumed, err := ContinueCampaign(context.Background(), cfg, first)
	if err != nil {
		t.Fatalf("ContinueCampaign: %v", err)
	}
	if len(resumed.Runs) != 2 {
		t.Fatalf("resumed %d runs", len(resumed.Runs))
	}
	for r, run := range resumed.Runs {
		if len(run.Generations) != 3+3 {
			t.Errorf("run %d has %d generation records, want 6", r, len(run.Generations))
		}
		for g, rec := range run.Generations {
			if rec.Gen != g {
				t.Errorf("run %d record %d has Gen %d (indices must continue)", r, g, rec.Gen)
			}
		}
		if len(run.Final) != 15 {
			t.Errorf("run %d final population %d", r, len(run.Final))
		}
	}
	// Continuing adds evaluations: 2 runs × 3 gens × 15.
	want := first.TotalEvaluations() + 2*3*15
	if got := resumed.TotalEvaluations(); got != want {
		t.Errorf("TotalEvaluations = %d, want %d", got, want)
	}
	if observed != 2*3 {
		t.Errorf("observer saw %d generations, want 6", observed)
	}
}

func TestResumeImprovesOrMaintainsFrontier(t *testing.T) {
	cfg := CampaignConfig{
		Runs: 1, PopSize: 20, Generations: 2,
		Evaluator:   persistEval,
		Parallelism: 4, AnnealFactor: 0.9, BaseSeed: 5,
	}
	first, err := RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Generations = 6
	resumed, err := ContinueCampaign(context.Background(), cfg, first)
	if err != nil {
		t.Fatal(err)
	}
	// persistEval's objectives live in (0, 0.01] × (0, 6).
	ref := ea.Fitness{0.02, 7}
	hvFirst := nsga2.Hypervolume2D(first.LastGenerations(), ref)
	hvResumed := nsga2.Hypervolume2D(resumed.LastGenerations(), ref)
	if hvResumed < hvFirst-1e-12 {
		t.Errorf("resume degraded frontier: %v -> %v (elitist selection forbids this)", hvFirst, hvResumed)
	}
}

func TestResumeRoundTripThroughPersistence(t *testing.T) {
	// The real workflow: job 1 runs, saves; job 2 loads, continues.
	cfg := CampaignConfig{
		Runs: 1, PopSize: 10, Generations: 1,
		Evaluator: persistEval, Parallelism: 2, BaseSeed: 9,
	}
	first, err := RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveCampaign(&buf, first); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCampaign(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Generations = 3
	resumed, err := ContinueCampaign(context.Background(), cfg, loaded)
	if err != nil {
		t.Fatalf("continue after load: %v", err)
	}
	if resumed.TotalEvaluations() != 10*2+10*2 {
		t.Errorf("evaluations = %d", resumed.TotalEvaluations())
	}
}

func TestResumeValidation(t *testing.T) {
	ctx := context.Background()
	cfg := CampaignConfig{Runs: 1, PopSize: 10, Generations: 1, Evaluator: persistEval, BaseSeed: 1}
	first, err := RunCampaign(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := ContinueCampaign(ctx, cfg, &CampaignResult{})
	if err != nil || len(fresh.Runs) != 1 || len(fresh.Runs[0].Generations) != 2 {
		t.Errorf("an empty log did not start fresh: %v", err)
	}
	short := cfg
	short.Generations = 0
	badPop := cfg
	badPop.PopSize = 9
	otherSeed := cfg
	otherSeed.BaseSeed = 2
	twoRuns := &CampaignResult{Runs: []*nsga2.Result{first.Runs[0], first.Runs[0]}}
	// Through the file, a generation-1 offspring that selection dropped
	// now dominates everything, so it must survive generation 1.
	edited, err := LoadCampaign(bytes.NewReader(saveBytes(t, first)))
	if err != nil {
		t.Fatal(err)
	}
	gen1 := edited.Runs[0].Generations[1]
	for _, ind := range gen1.Evaluated {
		if !slices.Contains(gen1.Survivors, ind) {
			ind.Fitness = ea.Fitness{-1, -1}
			break
		}
	}
	for _, tc := range []struct {
		name string
		cfg  CampaignConfig
		prev *CampaignResult
		want string
	}{
		{"log longer than the run", short, first, "run 0: nsga2: the log holds 2 generations, the run has 1"},
		{"more runs than the campaign", cfg, twoRuns, "the log has 2 runs, the campaign 1"},
		{"population size", badPop, first, "run 0: nsga2: generation 0: the log has 10 individuals, the search asks for 9"},
		{"another seed", otherSeed, first, "run 0: nsga2: generation 0, position 0:"},
		{"edited fitness", cfg, edited, "run 0: nsga2: generation 1, survivor"},
	} {
		_, err := ContinueCampaign(ctx, tc.cfg, tc.prev)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// nonFiniteEval is persistEval with a second kind of bad training: some
// genomes diverge to a non-finite fitness instead of failing.
var nonFiniteEval = ea.EvaluatorFunc(func(ctx context.Context, g ea.Genome) (ea.Fitness, error) {
	h, err := Decode(g)
	if err != nil {
		return nil, err
	}
	switch m := math.Mod(h.StartLR*1e7, 23); {
	case m < 1:
		return ea.Fitness{math.Inf(1), math.NaN()}, nil
	case m < 2:
		return ea.Fitness{h.StartLR, math.Inf(1)}, nil
	}
	return persistEval.Evaluate(ctx, g)
})

// sameBits reports whether two float vectors are equal bit for bit,
// every NaN counting as equal to every NaN.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
	})
}

// TestContinueCampaignEqualsUninterrupted: a campaign stopped after any
// prefix of its generations — the runs at different prefixes — and
// continued from its log through SaveCampaign → LoadCampaign evaluates
// and keeps the same genomes with the same fitnesses, generation by
// generation, as the campaign that never stopped, and evaluates only the
// generations the log lacks.
func TestContinueCampaignEqualsUninterrupted(t *testing.T) {
	ctx := context.Background()
	cfg := CampaignConfig{
		Runs: 2, PopSize: 12, Generations: 4,
		Evaluator: nonFiniteEval, Parallelism: 3, BaseSeed: 31,
	}
	full, err := RunCampaign(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	nonFinite := 0
	for _, run := range full.Runs {
		for _, gen := range run.Generations {
			for _, ind := range gen.Evaluated {
				if slices.ContainsFunc(ind.Fitness, func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }) {
					nonFinite++
				}
			}
		}
	}
	if nonFinite == 0 {
		t.Fatal("the campaign has no non-finite fitness; the test wants one")
	}

	gens := cfg.Generations + 1
	for k := 0; k <= gens; k++ {
		prefix := &CampaignResult{Runs: []*nsga2.Result{
			{Generations: full.Runs[0].Generations[:k]},
			{Generations: full.Runs[1].Generations[:gens-k]},
		}}
		loaded, err := LoadCampaign(bytes.NewReader(saveBytes(t, prefix)))
		if err != nil {
			t.Fatal(err)
		}
		var calls atomic.Int64
		counted := cfg
		counted.Evaluator = ea.EvaluatorFunc(func(ctx context.Context, g ea.Genome) (ea.Fitness, error) {
			calls.Add(1)
			return nonFiniteEval.Evaluate(ctx, g)
		})
		got, err := ContinueCampaign(ctx, counted, loaded)
		if err != nil {
			t.Fatalf("prefix %d: %v", k, err)
		}
		if n := calls.Load(); n != int64(gens*cfg.PopSize) {
			t.Errorf("prefix %d: %d evaluations, want %d (the generations not in the log)", k, n, gens*cfg.PopSize)
		}
		for r, run := range got.Runs {
			want := full.Runs[r]
			if len(run.Generations) != gens {
				t.Fatalf("prefix %d run %d: %d generations, want %d", k, r, len(run.Generations), gens)
			}
			for g, rec := range run.Generations {
				w := want.Generations[g]
				for _, pair := range [][2]ea.Population{{rec.Evaluated, w.Evaluated}, {rec.Survivors, w.Survivors}} {
					if len(pair[0]) != len(pair[1]) {
						t.Fatalf("prefix %d run %d gen %d: %d individuals, want %d", k, r, g, len(pair[0]), len(pair[1]))
					}
					for i := range pair[0] {
						a, b := pair[0][i], pair[1][i]
						if !sameBits(a.Genome, b.Genome) || !sameBits(a.Fitness, b.Fitness) {
							t.Fatalf("prefix %d run %d gen %d position %d: %v %v, want %v %v", k, r, g, i, a.Genome, a.Fitness, b.Genome, b.Fitness)
						}
					}
				}
			}
		}
	}
}
