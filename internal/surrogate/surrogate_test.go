package surrogate

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/ea"
	"repro/internal/hpo"
)

// goodParams is a near-optimal configuration (Table 3 solution 1).
func goodParams() hpo.HParams {
	return hpo.HParams{
		StartLR: 0.0047, StopLR: 0.0001, RCut: 11.32, RCutSmth: 2.42,
		ScaleByWorker: "none", DescActiv: "tanh", FittingActiv: "tanh",
	}
}

func newQuiet() *Evaluator {
	return NewEvaluator(Config{Seed: 1, NoiseScale: -1, DisableFailures: true})
}

func evalP(t *testing.T, s *Evaluator, h hpo.HParams) Result {
	t.Helper()
	return s.EvaluateParams(h, 12345)
}

func TestDeterministicForGenome(t *testing.T) {
	s := NewEvaluator(Config{Seed: 7})
	g, err := hpo.Encode(goodParams())
	if err != nil {
		t.Fatal(err)
	}
	r1, err := s.EvaluateGenome(g)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.EvaluateGenome(g)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Errorf("same genome gave different results: %+v vs %+v", r1, r2)
	}
	// A different seed decorrelates the noise.
	s2 := NewEvaluator(Config{Seed: 8})
	r3, _ := s2.EvaluateGenome(g)
	if r1 == r3 {
		t.Error("different campaign seeds gave identical noise")
	}
}

func TestGoodParamsNearPaperOptimum(t *testing.T) {
	s := newQuiet()
	r := evalP(t, s, goodParams())
	if r.Failed {
		t.Fatal("good params failed")
	}
	if r.ForceLoss < 0.030 || r.ForceLoss > 0.042 {
		t.Errorf("force loss %v outside the paper's frontier band", r.ForceLoss)
	}
	if r.EnergyLoss < 0.0003 || r.EnergyLoss > 0.002 {
		t.Errorf("energy loss %v outside the paper's frontier band", r.EnergyLoss)
	}
	if !hpo.ChemicallyAccurate(ea.Fitness{r.EnergyLoss, r.ForceLoss}) {
		t.Errorf("paper's best solution not chemically accurate: %+v", r)
	}
	if r.Runtime > 80*time.Minute {
		t.Errorf("runtime %v exceeds the paper's observed 80 min ceiling", r.Runtime)
	}
}

func TestSmallRCutBreaksChemicalAccuracy(t *testing.T) {
	// §3.2: no chemically accurate solution has rcut below ≈8.5 Å.
	s := newQuiet()
	for _, rcut := range []float64{6.0, 7.0, 8.0, 8.3} {
		h := goodParams()
		h.RCut = rcut
		r := evalP(t, s, h)
		if hpo.ChemicallyAccurate(ea.Fitness{r.EnergyLoss, r.ForceLoss}) {
			t.Errorf("rcut=%v chemically accurate (energy %v, force %v); paper requires ≥8.5",
				rcut, r.EnergyLoss, r.ForceLoss)
		}
	}
	for _, rcut := range []float64{9.0, 10.0, 11.5} {
		h := goodParams()
		h.RCut = rcut
		r := evalP(t, s, h)
		if !hpo.ChemicallyAccurate(ea.Fitness{r.EnergyLoss, r.ForceLoss}) {
			t.Errorf("rcut=%v not accurate (energy %v, force %v)", rcut, r.EnergyLoss, r.ForceLoss)
		}
	}
}

func TestRCutMonotoneImprovement(t *testing.T) {
	s := newQuiet()
	prevE, prevF := math.Inf(1), math.Inf(1)
	for _, rcut := range []float64{6.5, 7.5, 8.5, 9.5, 10.5, 11.5} {
		h := goodParams()
		h.RCut = rcut
		r := evalP(t, s, h)
		if r.EnergyLoss > prevE+1e-12 || r.ForceLoss > prevF+1e-12 {
			t.Errorf("losses not improving with rcut at %v: e %v→%v f %v→%v",
				rcut, prevE, r.EnergyLoss, prevF, r.ForceLoss)
		}
		prevE, prevF = r.EnergyLoss, r.ForceLoss
	}
}

func TestFittingReluHeavilyPenalized(t *testing.T) {
	// §3.2: relu/relu6 fitting activations drop out of the final
	// populations entirely.
	s := newQuiet()
	base := evalP(t, s, goodParams())
	for _, act := range []string{"relu", "relu6"} {
		h := goodParams()
		h.FittingActiv = act
		r := evalP(t, s, h)
		if r.ForceLoss < base.ForceLoss*1.3 {
			t.Errorf("fitting %s force loss %v not strongly worse than tanh %v",
				act, r.ForceLoss, base.ForceLoss)
		}
		if hpo.ChemicallyAccurate(ea.Fitness{r.EnergyLoss, r.ForceLoss}) {
			t.Errorf("fitting %s chemically accurate; should be excluded", act)
		}
	}
}

func TestDescriptorSigmoidExcludedFromAccuracy(t *testing.T) {
	s := newQuiet()
	h := goodParams()
	h.DescActiv = "sigmoid"
	r := evalP(t, s, h)
	if hpo.ChemicallyAccurate(ea.Fitness{r.EnergyLoss, r.ForceLoss}) {
		t.Errorf("descriptor sigmoid chemically accurate (%v, %v); §3.2 excludes it",
			r.EnergyLoss, r.ForceLoss)
	}
}

func TestFittingSigmoidAndSoftplusExcellent(t *testing.T) {
	// §3.2: "Softplus and sigmoid for the fitting activation function
	// provided excellent results."
	s := newQuiet()
	base := evalP(t, s, goodParams())
	for _, act := range []string{"sigmoid", "softplus"} {
		h := goodParams()
		h.FittingActiv = act
		r := evalP(t, s, h)
		if r.ForceLoss > base.ForceLoss*1.1 {
			t.Errorf("fitting %s force %v much worse than tanh %v", act, r.ForceLoss, base.ForceLoss)
		}
		if !hpo.ChemicallyAccurate(ea.Fitness{r.EnergyLoss, r.ForceLoss}) {
			t.Errorf("fitting %s not chemically accurate", act)
		}
	}
}

func TestStopLRTradeoff(t *testing.T) {
	// Higher stop_lr → better force, worse energy (the frontier axis).
	s := newQuiet()
	hi := goodParams() // stop 1e-4
	lo := goodParams()
	lo.StopLR = 3e-6
	rHi := evalP(t, s, hi)
	rLo := evalP(t, s, lo)
	if rHi.ForceLoss >= rLo.ForceLoss {
		t.Errorf("high stop_lr force %v not better than low %v", rHi.ForceLoss, rLo.ForceLoss)
	}
	if rHi.EnergyLoss <= rLo.EnergyLoss {
		t.Errorf("high stop_lr energy %v not worse than low %v", rHi.EnergyLoss, rLo.EnergyLoss)
	}
}

func TestScaleSchemesOrdering(t *testing.T) {
	// With start_lr at the paper's default 0.001 and 6 workers, "linear"
	// over-scales (0.006) past the sweet spot while "sqrt" and "none"
	// stay near it; more accurate solutions come from sqrt/none (§3.2).
	s := newQuiet()
	losses := map[string]Result{}
	for _, scheme := range []string{"linear", "sqrt", "none"} {
		h := goodParams()
		h.StartLR = 0.004 // sweet spot for "none"
		h.ScaleByWorker = scheme
		losses[scheme] = evalP(t, s, h)
	}
	if losses["linear"].ForceLoss <= losses["none"].ForceLoss {
		t.Errorf("linear force %v not worse than none %v",
			losses["linear"].ForceLoss, losses["none"].ForceLoss)
	}
	if losses["linear"].EnergyLoss <= losses["sqrt"].EnergyLoss {
		t.Errorf("linear energy %v not worse than sqrt %v",
			losses["linear"].EnergyLoss, losses["sqrt"].EnergyLoss)
	}
}

func TestTinyLearningRateUndertrains(t *testing.T) {
	// Gen-0 outliers: near-zero start_lr leaves the model untrained with
	// force losses far above the cluster (Fig. 1 cropped outliers).
	s := newQuiet()
	h := goodParams()
	h.StartLR = 5e-8
	h.StopLR = 4e-8
	r := evalP(t, s, h)
	if r.ForceLoss < 0.3 {
		t.Errorf("untrained force loss %v, want ≥ 0.3 (outlier region)", r.ForceLoss)
	}
	if r.EnergyLoss < 0.01 {
		t.Errorf("untrained energy loss %v, want ≥ 0.01", r.EnergyLoss)
	}
}

func TestRuntimeGrowsWithRCutAndStaysUnder80(t *testing.T) {
	s := newQuiet()
	small := goodParams()
	small.RCut = 6.5
	large := goodParams()
	large.RCut = 12.0
	rSmall := evalP(t, s, small)
	rLarge := evalP(t, s, large)
	if rLarge.Runtime <= rSmall.Runtime {
		t.Errorf("runtime not growing with rcut: %v vs %v", rSmall.Runtime, rLarge.Runtime)
	}
	if rLarge.Runtime > 80*time.Minute {
		t.Errorf("rcut=12 runtime %v exceeds 80 min", rLarge.Runtime)
	}
}

func TestFailuresAtOverScaledLR(t *testing.T) {
	// start_lr 0.01 with linear scaling at 6 workers → lrEff 0.06:
	// failure probability should be substantial.
	s := NewEvaluator(Config{Seed: 3})
	h := goodParams()
	h.StartLR = 0.01
	h.ScaleByWorker = "linear"
	failures := 0
	const trials = 300
	for i := 0; i < trials; i++ {
		r := s.EvaluateParams(h, int64(i))
		if r.Failed {
			failures++
			if r.Runtime > 15*time.Minute {
				t.Errorf("failed training runtime %v, want short (§3.2)", r.Runtime)
			}
		}
	}
	if failures < trials/10 {
		t.Errorf("only %d/%d failures at lrEff=0.06, want many", failures, trials)
	}
	// And near-zero failures at good settings.
	good := 0
	for i := 0; i < trials; i++ {
		if r := s.EvaluateParams(goodParams(), int64(i)); r.Failed {
			good++
		}
	}
	if good > trials/20 {
		t.Errorf("%d/%d failures at good settings, want rare", good, trials)
	}
}

func TestDisableFailures(t *testing.T) {
	s := NewEvaluator(Config{Seed: 3, DisableFailures: true})
	h := goodParams()
	h.StartLR = 0.01
	h.ScaleByWorker = "linear"
	for i := 0; i < 100; i++ {
		if r := s.EvaluateParams(h, int64(i)); r.Failed {
			t.Fatal("failure despite DisableFailures")
		}
	}
}

func TestEvaluateReturnsErrorOnFailure(t *testing.T) {
	s := NewEvaluator(Config{Seed: 3})
	h := goodParams()
	h.StartLR = 0.01
	h.ScaleByWorker = "linear"
	sawError := false
	rng := rand.New(rand.NewSource(4))
	rep := hpo.PaperRepresentation()
	for i := 0; i < 400 && !sawError; i++ {
		g, _ := hpo.Encode(h)
		// Jitter continuous genes so the noise key varies.
		g[hpo.GeneRCut] = 6 + 6*rng.Float64()
		if _, err := s.Evaluate(context.Background(), g); err != nil {
			sawError = true
		}
		_ = rep
	}
	if !sawError {
		t.Error("no failure surfaced as error in 400 evaluations at lrEff=0.06")
	}
}

func TestEvaluateRejectsBadGenome(t *testing.T) {
	s := NewEvaluator(Config{Seed: 1})
	if _, err := s.Evaluate(context.Background(), ea.Genome{1, 2}); err == nil {
		t.Error("short genome accepted")
	}
}

func TestNoiseScaleSpread(t *testing.T) {
	s := NewEvaluator(Config{Seed: 5}) // default 3% noise
	h := goodParams()
	var lo, hi float64 = math.Inf(1), 0
	for i := 0; i < 200; i++ {
		r := s.EvaluateParams(h, int64(i))
		if r.Failed {
			continue
		}
		lo = math.Min(lo, r.ForceLoss)
		hi = math.Max(hi, r.ForceLoss)
	}
	if hi/lo < 1.05 || hi/lo > 1.6 {
		t.Errorf("noise spread hi/lo = %v, want moderate scatter", hi/lo)
	}
}

func TestSmoothingDistanceMildEffect(t *testing.T) {
	// §3.2: the smoothing distance varies across the whole range among
	// good solutions — its effect must be weak relative to rcut's.
	s := newQuiet()
	h1 := goodParams()
	h1.RCutSmth = 2.0
	h2 := goodParams()
	h2.RCutSmth = 5.9
	r1 := evalP(t, s, h1)
	r2 := evalP(t, s, h2)
	ratio := r2.ForceLoss / r1.ForceLoss
	if ratio > 1.15 || ratio < 0.87 {
		t.Errorf("rcut_smth effect too strong: force ratio %v", ratio)
	}
	if hpo.ChemicallyAccurate(ea.Fitness{r1.EnergyLoss, r1.ForceLoss}) !=
		hpo.ChemicallyAccurate(ea.Fitness{r2.EnergyLoss, r2.ForceLoss}) {
		t.Error("rcut_smth alone flipped chemical accuracy")
	}
}

func TestQuickSurrogateTotalOnBounds(t *testing.T) {
	// Robustness: any genome inside Table 1's bounds decodes and scores
	// without panic, returning finite positive losses or a failure.
	s := NewEvaluator(Config{Seed: 9})
	rep := hpo.PaperRepresentation()
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 3000; i++ {
		g := rep.Bounds.Sample(rng)
		r, err := s.EvaluateGenome(g)
		if err != nil {
			t.Fatalf("EvaluateGenome(%v): %v", g, err)
		}
		if r.Failed {
			if r.Runtime <= 0 {
				t.Fatal("failed run without runtime")
			}
			continue
		}
		if !(r.EnergyLoss > 0) || !(r.ForceLoss > 0) ||
			math.IsInf(r.EnergyLoss, 0) || math.IsInf(r.ForceLoss, 0) {
			t.Fatalf("non-finite losses for %v: %+v", g, r)
		}
		if r.Runtime <= 0 || r.Runtime > 3*time.Hour {
			t.Fatalf("implausible runtime %v", r.Runtime)
		}
	}
}

// TestPooledNoiseMatchesFreshSource checks that recycling the noise
// generator changes no bit: for 1 000 random (HParams, key) pairs,
// evaluated from 8 goroutines sharing the pool, EvaluateParams equals
// the same evaluation on a fresh rand.NewSource(key) — and the pooled
// call stays at one allocation or fewer.
func TestPooledNoiseMatchesFreshSource(t *testing.T) {
	s := NewEvaluator(Config{Seed: 9})
	rep := hpo.PaperRepresentation()
	rng := rand.New(rand.NewSource(11))
	type pair struct {
		h   hpo.HParams
		key int64
	}
	pairs := make([]pair, 1000)
	for i := range pairs {
		h, err := hpo.Decode(rep.Bounds.Sample(rng))
		if err != nil {
			t.Fatal(err)
		}
		pairs[i] = pair{h, rng.Int63()}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(pairs); i += 8 {
				p := pairs[i]
				want := s.evaluate(p.h, rand.New(rand.NewSource(p.key)))
				if got := s.EvaluateParams(p.h, p.key); got != want {
					t.Errorf("pair %d: pooled %+v, fresh source %+v", i, got, want)
				}
			}
		}()
	}
	wg.Wait()
	if got := testing.AllocsPerRun(100, func() { s.EvaluateParams(pairs[0].h, pairs[0].key) }); got > 1 {
		t.Errorf("EvaluateParams: %v allocs/op, want <= 1", got)
	}
}
