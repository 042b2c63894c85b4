package nsga2

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/ea"
)

func zdt1Config(seed int64) Config {
	p := zdt1(8)
	std := make([]float64, len(p.Bounds))
	for i := range std {
		std[i] = 0.2
	}
	return Config{
		PopSize:      40,
		Generations:  60,
		Bounds:       p.Bounds,
		InitialStd:   std,
		AnnealFactor: 0.95,
		Evaluator:    p.Evaluator(),
		Pool:         ea.PoolConfig{Parallelism: 4, Objectives: 2},
		Seed:         seed,
	}
}

func TestRunConvergesOnZDT1(t *testing.T) {
	cfg := zdt1Config(42)
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Final) != cfg.PopSize {
		t.Fatalf("final population size %d, want %d", len(res.Final), cfg.PopSize)
	}
	// Mean distance of the final front to the true ZDT1 front must be far
	// smaller than for the random initial population.
	p := zdt1(8)
	dist := func(pop ea.Population) float64 {
		total := 0.0
		for _, ind := range pop {
			want := p.TrueFront(math.Min(math.Max(ind.Fitness[0], 0), 1))
			total += math.Abs(ind.Fitness[1] - want)
		}
		return total / float64(len(pop))
	}
	d0 := dist(res.Generations[0].Evaluated)
	dN := dist(res.Final)
	if dN > d0/5 {
		t.Errorf("final mean front distance %v not well below initial %v", dN, d0)
	}
	if dN > 0.5 {
		t.Errorf("final mean front distance %v too large", dN)
	}
}

func TestRunIsDeterministicForSeed(t *testing.T) {
	cfgA := zdt1Config(7)
	cfgA.Generations = 5
	resA, err := Run(context.Background(), cfgA)
	if err != nil {
		t.Fatalf("Run A: %v", err)
	}
	cfgB := zdt1Config(7)
	cfgB.Generations = 5
	resB, err := Run(context.Background(), cfgB)
	if err != nil {
		t.Fatalf("Run B: %v", err)
	}
	for i := range resA.Final {
		for k := range resA.Final[i].Fitness {
			if resA.Final[i].Fitness[k] != resB.Final[i].Fitness[k] {
				t.Fatalf("runs with same seed diverge at individual %d", i)
			}
		}
	}
}

func TestRunRecordsHistory(t *testing.T) {
	cfg := zdt1Config(1)
	cfg.Generations = 6
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Generations) != 7 {
		t.Fatalf("got %d generation records, want 7", len(res.Generations))
	}
	if res.TotalEvaluations() != 7*cfg.PopSize {
		t.Errorf("TotalEvaluations = %d, want %d", res.TotalEvaluations(), 7*cfg.PopSize)
	}
	for g, rec := range res.Generations {
		if rec.Gen != g {
			t.Errorf("record %d has Gen %d", g, rec.Gen)
		}
		if len(rec.Evaluated) != cfg.PopSize || len(rec.Survivors) != cfg.PopSize {
			t.Errorf("gen %d sizes: evaluated %d survivors %d", g, len(rec.Evaluated), len(rec.Survivors))
		}
		for _, ind := range rec.Evaluated {
			if ind.Birth != g {
				t.Errorf("gen %d evaluated individual born at %d", g, ind.Birth)
			}
		}
	}
	if got := res.Generations[len(res.Generations)-1].Evaluated; got == nil || got[0].Birth != cfg.Generations {
		t.Error("last generation's births wrong")
	}
}

func TestRunObserverCalled(t *testing.T) {
	cfg := zdt1Config(2)
	cfg.Generations = 3
	var gens []int
	cfg.Observer = func(gen int, evaluated, survivors ea.Population) {
		gens = append(gens, gen)
		if len(evaluated) != cfg.PopSize {
			t.Errorf("observer gen %d: %d evaluated", gen, len(evaluated))
		}
	}
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(gens) != 4 || gens[0] != 0 || gens[3] != 3 {
		t.Errorf("observer generations = %v", gens)
	}
}

func TestRunWithFailures(t *testing.T) {
	// An evaluator failing 30% of the time: the run must complete and the
	// failure counts must be recorded; survivors should prefer successes.
	p := zdt1(4)
	calls := 0
	ev := ea.EvaluatorFunc(func(_ context.Context, g ea.Genome) (ea.Fitness, error) {
		calls++
		if calls%3 == 0 {
			return nil, errors.New("simulated training crash")
		}
		return p.Eval(g), nil
	})
	std := []float64{0.1, 0.1, 0.1, 0.1}
	cfg := Config{
		PopSize: 20, Generations: 4, Bounds: p.Bounds, InitialStd: std,
		AnnealFactor: 0.85, Evaluator: ev,
		Pool: ea.PoolConfig{Parallelism: 1, Objectives: 2}, Seed: 3,
	}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.TotalFailures() == 0 {
		t.Error("no failures recorded despite failing evaluator")
	}
	// With plenty of successes available, no failure should survive
	// selection into the final population.
	for _, ind := range res.Final {
		if ind.Fitness.IsFailure() {
			t.Error("failure individual survived selection")
		}
	}
}

func TestRunValidation(t *testing.T) {
	p := zdt1(4)
	base := func() Config {
		return Config{
			PopSize: 10, Generations: 1, Bounds: p.Bounds,
			InitialStd: []float64{0.1, 0.1, 0.1, 0.1},
			Evaluator:  p.Evaluator(),
		}
	}
	bad := []func(*Config){
		func(c *Config) { c.PopSize = 0 },
		func(c *Config) { c.Generations = -1 },
		func(c *Config) { c.Bounds = nil },
		func(c *Config) { c.InitialStd = []float64{0.1} },
		func(c *Config) { c.Evaluator = nil },
		func(c *Config) { c.AnnealFactor = -1 },
		func(c *Config) { c.Bounds = ea.Bounds{{Lo: 1, Hi: 0}, {}, {}, {}} },
	}
	for i, mutate := range bad {
		cfg := base()
		mutate(&cfg)
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	cfg := base()
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := zdt1Config(5)
	if _, err := Run(ctx, cfg); err == nil {
		t.Error("Run with cancelled context succeeded")
	}
}

func TestRunFinalIsSubsetOfBestRanks(t *testing.T) {
	cfg := zdt1Config(11)
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Re-sorting the final population alone, most members should be
	// mutually non-dominated by the end of a converged ZDT1 run.
	fronts := FastNonDominatedSort(res.Final)
	if len(fronts[0]) < len(res.Final)/2 {
		t.Errorf("first front has only %d of %d members after convergence", len(fronts[0]), len(res.Final))
	}
}
