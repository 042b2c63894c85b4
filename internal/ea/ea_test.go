package ea

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func testBounds() Bounds {
	return Bounds{{0, 1}, {-5, 5}, {2, 6}}
}

func TestBoundsSampleWithin(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := testBounds()
	for i := 0; i < 200; i++ {
		g := b.Sample(rng)
		if !b.Contains(g) {
			t.Fatalf("sampled genome %v outside bounds", g)
		}
	}
}

func TestBoundsClamp(t *testing.T) {
	b := testBounds()
	g := Genome{-1, 10, 4}
	b.Clamp(g)
	want := Genome{0, 5, 4}
	for i := range want {
		if g[i] != want[i] {
			t.Errorf("clamped[%d] = %v, want %v", i, g[i], want[i])
		}
	}
}

func TestBoundsValidate(t *testing.T) {
	good := Bounds{{0, 1}}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate(good) = %v", err)
	}
	bad := Bounds{{1, 0}}
	if err := bad.Validate(); err == nil {
		t.Error("Validate(inverted) = nil, want error")
	}
}

func TestCloneGetsNewIDAndClearsFitness(t *testing.T) {
	ind := NewIndividual(Genome{1, 2, 3})
	ind.Fitness = Fitness{0.5, 0.5}
	ind.Evaluated = true
	c := ind.Clone()
	if c.ID == ind.ID {
		t.Error("Clone kept the same UUID")
	}
	if c.Evaluated || c.Fitness != nil {
		t.Error("Clone kept evaluation state")
	}
	c.Genome[0] = 99
	if ind.Genome[0] == 99 {
		t.Error("Clone aliases parent genome")
	}
}

func TestFailureFitness(t *testing.T) {
	f := FailureFitness(2)
	if !f.IsFailure() {
		t.Error("FailureFitness(2).IsFailure() = false")
	}
	if f[0] != MaxFitness || f[1] != MaxFitness {
		t.Errorf("FailureFitness = %v", f)
	}
	ok := Fitness{0.1, MaxFitness}
	if ok.IsFailure() {
		t.Error("partial failure fitness reported IsFailure")
	}
	var empty Fitness
	if empty.IsFailure() {
		t.Error("empty fitness reported IsFailure")
	}
}

func TestRandomSelectionCoversPopulation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pop := RandomPopulation(rng, testBounds(), 10, 0)
	sel := RandomSelection(rng, pop)
	seen := map[*Individual]bool{}
	for i := 0; i < 1000; i++ {
		ind, ok := sel()
		if !ok {
			t.Fatal("RandomSelection ended")
		}
		seen[ind] = true
	}
	if len(seen) != len(pop) {
		t.Errorf("selection covered %d of %d members", len(seen), len(pop))
	}
}

func TestRandomSelectionEmptyPopulation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sel := RandomSelection(rng, nil)
	if _, ok := sel(); ok {
		t.Error("RandomSelection of empty population yielded an individual")
	}
}

func TestMutateGaussianRespectsBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := testBounds()
	ctx := NewContext([]float64{10, 10, 10}) // huge σ to force clipping
	pop := RandomPopulation(rng, b, 5, 0)
	stream := Pipe(Source(pop), Clone(), MutateGaussian(rng, ctx, b))
	out := Take(stream, 5)
	for _, ind := range out {
		if !b.Contains(ind.Genome) {
			t.Errorf("mutated genome %v escapes bounds", ind.Genome)
		}
	}
}

func TestMutateGaussianIsIsotropic(t *testing.T) {
	// With σ > 0 on all genes, all genes should change (prob. of a zero
	// normal draw is 0).
	rng := rand.New(rand.NewSource(4))
	b := Bounds{{-1e9, 1e9}, {-1e9, 1e9}}
	ctx := NewContext([]float64{1, 1})
	orig := Genome{0, 0}
	ind := NewIndividual(orig.Clone())
	stream := Pipe(Source(Population{ind}), MutateGaussian(rng, ctx, b))
	out := Take(stream, 1)
	for i, v := range out[0].Genome {
		if v == orig[i] {
			t.Errorf("gene %d unchanged by isotropic mutation", i)
		}
	}
}

func TestMutateGaussianSeesAnnealedStd(t *testing.T) {
	// After annealing σ to 0 the mutation must be a no-op.
	rng := rand.New(rand.NewSource(5))
	b := Bounds{{-10, 10}}
	ctx := NewContext([]float64{1})
	ctx.AnnealStd(0)
	ind := NewIndividual(Genome{3})
	out := Take(Pipe(Source(Population{ind}), MutateGaussian(rng, ctx, b)), 1)
	if out[0].Genome[0] != 3 {
		t.Errorf("mutation with σ=0 changed gene: %v", out[0].Genome[0])
	}
}

func TestContextAnneal(t *testing.T) {
	ctx := NewContext([]float64{1.0, 0.5})
	ctx.AnnealStd(0.85)
	std := ctx.Std()
	if math.Abs(std[0]-0.85) > 1e-12 || math.Abs(std[1]-0.425) > 1e-12 {
		t.Errorf("annealed std = %v, want [0.85 0.425]", std)
	}
}

func TestTakePanicsOnShortStream(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Take on short stream did not panic")
		}
	}()
	Take(Source(Population{}), 1)
}

func TestEvalPoolEvaluatesAll(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	b := testBounds()
	pop := RandomPopulation(rng, b, 20, 0)
	ev := EvaluatorFunc(func(_ context.Context, g Genome) (Fitness, error) {
		return Fitness{g[0], g[1] * g[1]}, nil
	})
	out := EvalPool(context.Background(), Source(pop), 20, ev, PoolConfig{Parallelism: 4, Objectives: 2})
	if len(out) != 20 {
		t.Fatalf("EvalPool returned %d individuals, want 20", len(out))
	}
	for _, ind := range out {
		if !ind.Evaluated {
			t.Error("individual not evaluated")
		}
		if ind.Fitness[0] != ind.Genome[0] {
			t.Errorf("fitness[0] = %v, want %v", ind.Fitness[0], ind.Genome[0])
		}
	}
}

func TestEvalPoolErrorGivesMaxFitness(t *testing.T) {
	pop := Population{NewIndividual(Genome{1})}
	ev := EvaluatorFunc(func(_ context.Context, _ Genome) (Fitness, error) {
		return nil, errors.New("training crashed")
	})
	out := EvalPool(context.Background(), Source(pop), 1, ev, PoolConfig{Objectives: 2})
	if !out[0].Fitness.IsFailure() {
		t.Errorf("failed evaluation fitness = %v, want MAXINT pair", out[0].Fitness)
	}
	if out[0].Err == nil {
		t.Error("error not recorded on individual")
	}
}

func TestEvalPoolPanicGivesMaxFitness(t *testing.T) {
	pop := Population{NewIndividual(Genome{1})}
	ev := EvaluatorFunc(func(_ context.Context, _ Genome) (Fitness, error) {
		panic("bad hyperparameters")
	})
	out := EvalPool(context.Background(), Source(pop), 1, ev, PoolConfig{Objectives: 2})
	if !out[0].Fitness.IsFailure() {
		t.Errorf("panicked evaluation fitness = %v, want MAXINT pair", out[0].Fitness)
	}
}

func TestEvalPoolTimeout(t *testing.T) {
	pop := Population{NewIndividual(Genome{1})}
	ev := EvaluatorFunc(func(ctx context.Context, _ Genome) (Fitness, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(5 * time.Second):
			return Fitness{0, 0}, nil
		}
	})
	out := EvalPool(context.Background(), Source(pop), 1, ev, PoolConfig{
		Objectives: 2, Timeout: 10 * time.Millisecond,
	})
	if !out[0].Fitness.IsFailure() {
		t.Errorf("timed-out evaluation fitness = %v, want MAXINT pair", out[0].Fitness)
	}
	if !errors.Is(out[0].Err, ErrEvalTimeout) && out[0].Err == nil {
		t.Errorf("timeout error not recorded: %v", out[0].Err)
	}
}

func TestEvaluateIndividualDistinguishesCancelFromTimeout(t *testing.T) {
	blocker := EvaluatorFunc(func(ctx context.Context, _ Genome) (Fitness, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})

	// Parent cancellation (Ctrl-C / campaign abort): NOT a failure — the
	// individual stays unevaluated and carries the cancellation.
	ind := NewIndividual(Genome{1})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	EvaluateIndividual(ctx, ind, blocker, time.Hour, 2)
	if ind.Evaluated {
		t.Error("cancelled individual marked evaluated")
	}
	if ind.Fitness.IsFailure() {
		t.Errorf("cancelled individual branded MAXINT failure: %v", ind.Fitness)
	}
	if !errors.Is(ind.Err, context.Canceled) {
		t.Errorf("Err = %v, want context.Canceled", ind.Err)
	}

	// Per-individual timeout with a live parent: a genuine MAXINT failure
	// tagged ErrEvalTimeout (the paper's two-hour TimeoutError, §2.2.4).
	ind2 := NewIndividual(Genome{1})
	EvaluateIndividual(context.Background(), ind2, blocker, 10*time.Millisecond, 2)
	if !ind2.Evaluated || !ind2.Fitness.IsFailure() {
		t.Errorf("timed-out individual not failed: evaluated=%v fitness=%v", ind2.Evaluated, ind2.Fitness)
	}
	if !errors.Is(ind2.Err, ErrEvalTimeout) {
		t.Errorf("Err = %v, want ErrEvalTimeout", ind2.Err)
	}
}

func TestEvalPoolCancelledCampaignNoSpuriousFailures(t *testing.T) {
	started := make(chan struct{}, 16)
	blocker := EvaluatorFunc(func(ctx context.Context, _ Genome) (Fitness, error) {
		started <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	})
	rng := rand.New(rand.NewSource(4))
	pop := RandomPopulation(rng, testBounds(), 8, 0)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-started // at least one evaluation is in flight
		cancel()
	}()
	out := EvalPool(ctx, Source(pop), 8, blocker, PoolConfig{Parallelism: 2, Objectives: 2})
	if len(out) != 8 {
		t.Fatalf("EvalPool returned %d individuals, want 8", len(out))
	}
	for i, ind := range out {
		if ind.Fitness.IsFailure() {
			t.Errorf("individual %d branded MAXINT failure on abort (err=%v)", i, ind.Err)
		}
		if ind.Evaluated {
			t.Errorf("individual %d marked evaluated after abort", i)
		}
		if !errors.Is(ind.Err, context.Canceled) {
			t.Errorf("individual %d Err = %v, want context.Canceled", i, ind.Err)
		}
	}
}

func TestEvalPoolStopsLaunchingAfterCancel(t *testing.T) {
	var launched int64
	blocker := EvaluatorFunc(func(ctx context.Context, _ Genome) (Fitness, error) {
		atomic.AddInt64(&launched, 1)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	rng := rand.New(rand.NewSource(5))
	pop := RandomPopulation(rng, testBounds(), 20, 0)

	// Parallelism 2 and a context that is cancelled before the pool runs:
	// with the old semaphore (blind sem <- struct{}{}), the pool would
	// still drain the whole generation; now it must not launch anything.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	EvalPool(ctx, Source(pop), 20, blocker, PoolConfig{Parallelism: 2, Objectives: 2})
	if n := atomic.LoadInt64(&launched); n != 0 {
		t.Errorf("cancelled pool launched %d evaluations, want 0", n)
	}
}

func TestEvalPoolRecordsRuntime(t *testing.T) {
	pop := Population{NewIndividual(Genome{1})}
	ev := EvaluatorFunc(func(_ context.Context, _ Genome) (Fitness, error) {
		time.Sleep(5 * time.Millisecond)
		return Fitness{0, 0}, nil
	})
	out := EvalPool(context.Background(), Source(pop), 1, ev, PoolConfig{Objectives: 2})
	if out[0].Runtime < 5*time.Millisecond {
		t.Errorf("Runtime = %v, want >= 5ms", out[0].Runtime)
	}
}

func TestPopulationFailures(t *testing.T) {
	pop := Population{
		{Evaluated: true, Fitness: Fitness{1, 2}},
		{Evaluated: true, Fitness: FailureFitness(2)},
		{Evaluated: false},
	}
	if got := pop.Failures(); got != 1 {
		t.Errorf("Failures() = %d, want 1", got)
	}
	if pop.Evaluated() {
		t.Error("Evaluated() = true with unevaluated member")
	}
}

func TestQuickClampIdempotentAndInBounds(t *testing.T) {
	b := Bounds{{-3, 7}}
	f := func(v float64) bool {
		if math.IsNaN(v) {
			return true
		}
		g := Genome{v}
		b.Clamp(g)
		once := g[0]
		b.Clamp(g)
		//lint:ignore floateq Clamp idempotence is a bitwise property: clamping twice must change nothing
		return g[0] == once && b.Contains(g)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSetBirthStampsGeneration(t *testing.T) {
	pop := Population{NewIndividual(Genome{1})}
	out := Take(Pipe(Source(pop), SetBirth(3)), 1)
	if out[0].Birth != 3 {
		t.Errorf("Birth = %d, want 3", out[0].Birth)
	}
}
