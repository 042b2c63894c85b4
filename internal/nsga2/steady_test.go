package nsga2

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ea"
)

// steadyConfig is zdt1Config with a budget of 40 × 40 evaluations.
func steadyConfig(seed int64) Config {
	cfg := zdt1Config(seed)
	cfg.Generations = 39
	return cfg
}

func TestSteadyStateConvergesOnZDT1(t *testing.T) {
	cfg := steadyConfig(1)
	final, all, err := RunSteadyState(context.Background(), cfg)
	if err != nil {
		t.Fatalf("RunSteadyState: %v", err)
	}
	if len(final) != cfg.PopSize {
		t.Fatalf("final population %d, want %d", len(final), cfg.PopSize)
	}
	if want := cfg.PopSize * (cfg.Generations + 1); len(all) != want {
		t.Fatalf("evaluated %d, want %d", len(all), want)
	}
	p := zdt1(8)
	mean := 0.0
	for _, ind := range final {
		f1 := math.Min(math.Max(ind.Fitness[0], 0), 1)
		mean += math.Abs(ind.Fitness[1] - p.TrueFront(f1))
	}
	mean /= float64(len(final))
	if mean > 0.6 {
		t.Errorf("steady state mean front distance %v, want convergence", mean)
	}
}

func TestSteadyStateBudgetExactAndSaturated(t *testing.T) {
	var inFlight, peak int64
	ev := ea.EvaluatorFunc(func(_ context.Context, g ea.Genome) (ea.Fitness, error) {
		cur := atomic.AddInt64(&inFlight, 1)
		for {
			old := atomic.LoadInt64(&peak)
			if cur <= old || atomic.CompareAndSwapInt64(&peak, old, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		atomic.AddInt64(&inFlight, -1)
		return ea.Fitness{g[0], 1 - g[0]}, nil
	})
	cfg := Config{
		PopSize: 10, Generations: 5,
		Bounds:     ea.Bounds{{Lo: 0, Hi: 1}},
		InitialStd: []float64{0.1},
		Evaluator:  ev, Pool: ea.PoolConfig{Parallelism: 5}, Seed: 2,
	}
	_, all, err := RunSteadyState(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 60 {
		t.Errorf("evaluated %d, want exactly 60", len(all))
	}
	if p := atomic.LoadInt64(&peak); p < 3 {
		t.Errorf("peak concurrency %d, want ≥3 (workers saturated)", p)
	}
	if p := atomic.LoadInt64(&peak); p > 5 {
		t.Errorf("peak concurrency %d exceeds Parallelism 5", p)
	}
}

// TestSteadyStateSharesWorkers runs two steady-state searches on one
// Workers larger than either's Parallelism: each keeps its exact budget
// and never has more than Parallelism evaluations in flight.
func TestSteadyStateSharesWorkers(t *testing.T) {
	workers := ea.NewWorkers(8)
	defer workers.Close()
	peaks := make([]int64, 2)
	var wg sync.WaitGroup
	for i := range peaks {
		var inFlight int64
		ev := ea.EvaluatorFunc(func(_ context.Context, g ea.Genome) (ea.Fitness, error) {
			cur := atomic.AddInt64(&inFlight, 1)
			for {
				old := atomic.LoadInt64(&peaks[i])
				if cur <= old || atomic.CompareAndSwapInt64(&peaks[i], old, cur) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			atomic.AddInt64(&inFlight, -1)
			return ea.Fitness{g[0], 1 - g[0]}, nil
		})
		cfg := Config{
			PopSize: 10, Generations: 5,
			Bounds:     ea.Bounds{{Lo: 0, Hi: 1}},
			InitialStd: []float64{0.1},
			Evaluator:  ev, Pool: ea.PoolConfig{Parallelism: 3, Workers: workers}, Seed: int64(2 + i),
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, all, err := RunSteadyState(context.Background(), cfg); err != nil || len(all) != 60 {
				t.Errorf("search %d: %d evaluated, err %v; want exactly 60", i, len(all), err)
			}
		}()
	}
	wg.Wait()
	for i, p := range peaks {
		if p > 3 {
			t.Errorf("search %d: peak concurrency %d exceeds Parallelism 3", i, p)
		}
	}
}

// TestSteadyStateWarmStart checks that members of Initial that already
// carry a fitness count against the budget without being evaluated again.
func TestSteadyStateWarmStart(t *testing.T) {
	var calls atomic.Int64
	ev := ea.EvaluatorFunc(func(_ context.Context, g ea.Genome) (ea.Fitness, error) {
		calls.Add(1)
		return ea.Fitness{g[0], 1 - g[0]}, nil
	})
	cfg := Config{
		PopSize: 6, Generations: 3,
		Bounds:     ea.Bounds{{Lo: 0, Hi: 1}},
		InitialStd: []float64{0.1},
		Evaluator:  ev, Pool: ea.PoolConfig{Parallelism: 2}, Seed: 8,
	}
	first, _, err := RunSteadyState(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	calls.Store(0)
	cfg.Initial = first
	final, all, err := RunSteadyState(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 24 || len(final) != 6 {
		t.Fatalf("warm start: %d completions and %d survivors, want 24 and 6", len(all), len(final))
	}
	if n := calls.Load(); n != 18 {
		t.Errorf("warm start evaluated %d individuals, want 18 (the 6 warm members keep their fitness)", n)
	}
}

func TestSteadyStateHandlesFailures(t *testing.T) {
	calls := int64(0)
	ev := ea.EvaluatorFunc(func(_ context.Context, g ea.Genome) (ea.Fitness, error) {
		if atomic.AddInt64(&calls, 1)%4 == 0 {
			return nil, errors.New("crash")
		}
		return ea.Fitness{g[0], 1 - g[0]}, nil
	})
	cfg := Config{
		PopSize: 8, Generations: 9,
		Bounds:     ea.Bounds{{Lo: 0, Hi: 1}},
		InitialStd: []float64{0.1},
		Evaluator:  ev, Pool: ea.PoolConfig{Parallelism: 3}, Seed: 3,
	}
	final, all, err := RunSteadyState(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	failures := 0
	for _, ind := range all {
		if ind.Fitness.IsFailure() {
			failures++
		}
	}
	if failures == 0 {
		t.Error("no failures recorded")
	}
	for _, ind := range final {
		if ind.Fitness.IsFailure() {
			t.Error("failure survived in final population")
		}
	}
}

func TestSteadyStateValidation(t *testing.T) {
	cfg := steadyConfig(4)
	cfg.Generations = -1 // budget below PopSize
	if _, _, err := RunSteadyState(context.Background(), cfg); err == nil {
		t.Error("budget below PopSize accepted")
	}
	cfg = steadyConfig(4)
	cfg.Bounds = ea.Bounds{{Lo: 1, Hi: 0}}
	cfg.InitialStd = []float64{0.1}
	if _, _, err := RunSteadyState(context.Background(), cfg); err == nil {
		t.Error("inverted bounds accepted")
	}
	cfg = steadyConfig(4)
	cfg.InitialStd = cfg.InitialStd[:3]
	if _, _, err := RunSteadyState(context.Background(), cfg); err == nil {
		t.Error("InitialStd shorter than Bounds accepted")
	}
	cfg = steadyConfig(4)
	cfg.Evaluator = nil
	if _, _, err := RunSteadyState(context.Background(), cfg); err == nil {
		t.Error("nil Evaluator accepted")
	}
}

func TestSteadyStateCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ev := ea.EvaluatorFunc(func(c context.Context, g ea.Genome) (ea.Fitness, error) {
		time.Sleep(2 * time.Millisecond)
		return ea.Fitness{g[0], 1 - g[0]}, nil
	})
	cfg := Config{
		PopSize: 10, Generations: 9999,
		Bounds:     ea.Bounds{{Lo: 0, Hi: 1}},
		InitialStd: []float64{0.1},
		Evaluator:  ev, Pool: ea.PoolConfig{Parallelism: 2}, Seed: 5,
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, _, err := RunSteadyState(ctx, cfg)
	if err == nil {
		t.Error("cancelled steady-state run returned nil error")
	}
}

// TestSteadyStateComparableToGenerational checks the ablation claim: with
// the same evaluation budget, steady-state reaches a front quality in the
// same ballpark as the generational scheme.
func TestSteadyStateComparableToGenerational(t *testing.T) {
	p := zdt1(8)
	std := make([]float64, 8)
	for i := range std {
		std[i] = 0.2
	}
	gen, err := Run(context.Background(), Config{
		PopSize: 40, Generations: 39, Bounds: p.Bounds, InitialStd: std,
		AnnealFactor: 0.95, Evaluator: p.Evaluator(), Seed: 6,
		Pool: ea.PoolConfig{Parallelism: 4, Objectives: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	steadyFinal, _, err := RunSteadyState(context.Background(), steadyConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	ref := ea.Fitness{3, 8}
	hvGen := Hypervolume2D(gen.Final, ref)
	hvSteady := Hypervolume2D(steadyFinal, ref)
	if hvSteady < hvGen*0.9 {
		t.Errorf("steady-state HV %v far below generational %v at equal budget", hvSteady, hvGen)
	}
}
