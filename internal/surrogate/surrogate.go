// Package surrogate is the stand-in for the paper's 3500 two-hour DeePMD
// trainings on Summit (§2.2.5): a deterministic, seeded response surface
// mapping the seven tuned hyperparameters to (validation energy loss,
// validation force loss, training runtime, failure).  One full-size
// training is ~12 GPU-hours; the campaign needs thousands, so the paper's
// compute substrate is simulated while the optimization machinery under
// study — NSGA-II, the operator pipeline, failure handling — runs for
// real.
//
// The surface is calibrated to reproduce every qualitative finding of §3:
//
//   - Frontier force errors land in ≈[0.035, 0.041] eV/Å and energy errors
//     in ≈[0.0004, 0.0017] eV/atom (Table 2), with an explicit trade-off
//     axis so a non-degenerate Pareto frontier exists (Fig. 2).
//   - Chemically accurate solutions require rcut ≳ 8.5 Å (Fig. 3).
//   - relu/relu6 fitting activations are strongly penalized (they drop
//     out of the final population); sigmoid descriptor activation is
//     moderately penalized (excluded from accurate solutions);
//     tanh/softplus excel for both networks (§3.2).
//   - Linear learning-rate scaling at 6 workers often over-scales the
//     learning rate; "sqrt" and "none" yield more accurate solutions.
//   - Runtimes stay below ~80 minutes, growing with rcut³ (neighbour
//     count); failed trainings return after only a few minutes.
//   - A small fraction of evaluations fail outright (≈25 of 3500 in the
//     paper), concentrated where the effective learning rate explodes.
//
// The real in-process trainer (internal/deepmd) moves in the same
// directions along each axis, which is validated by tests in this package
// — the surrogate's landscape is an extrapolation of a real, runnable
// trainer, not an arbitrary function.
package surrogate

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/ea"
	"repro/internal/hpo"
	"repro/internal/nn"
)

// Result is one simulated training outcome.
type Result struct {
	EnergyLoss float64       // validation RMSE, eV/atom
	ForceLoss  float64       // validation RMSE, eV/Å
	Runtime    time.Duration // simulated wall-clock training time
	Failed     bool          // training crashed / timed out / diverged
}

// Config tunes the surrogate.
type Config struct {
	// Seed decorrelates campaigns; the same (Seed, genome) pair always
	// produces the same Result.
	Seed int64
	// Workers is the data-parallel width the learning rate is scaled by
	// (6 GPUs per Summit node in the paper).
	Workers int
	// NoiseScale is the multiplicative log-normal noise σ on both losses
	// (default 0.05).  Zero keeps the default; negative disables noise.
	NoiseScale float64
	// DisableFailures turns the failure hazard off (ablation runs).
	DisableFailures bool
}

// Evaluator is a deterministic surrogate implementing ea.Evaluator.
type Evaluator struct {
	cfg Config
}

// NewEvaluator builds a surrogate with paper-like defaults.
func NewEvaluator(cfg Config) *Evaluator {
	if cfg.Workers <= 0 {
		cfg.Workers = 6
	}
	if cfg.NoiseScale == 0 {
		cfg.NoiseScale = 0.03
	}
	if cfg.NoiseScale < 0 {
		cfg.NoiseScale = 0
	}
	return &Evaluator{cfg: cfg}
}

// Evaluate implements ea.Evaluator: fitness is (energy loss, force loss),
// and a failed training returns an error so the EA assigns MAXINT
// (§2.2.4).
func (s *Evaluator) Evaluate(_ context.Context, g ea.Genome) (ea.Fitness, error) {
	res, err := s.EvaluateGenome(g)
	if err != nil {
		return nil, err
	}
	if res.Failed {
		return nil, fmt.Errorf("surrogate: training failed after %v", res.Runtime)
	}
	return ea.Fitness{res.EnergyLoss, res.ForceLoss}, nil
}

// EvaluateGenome decodes and scores a genome.  Because the mapping is
// deterministic, callers can re-invoke it later to recover the simulated
// runtime of any individual (used by the Fig. 3 / Table 3 analyses).
func (s *Evaluator) EvaluateGenome(g ea.Genome) (Result, error) {
	h, err := hpo.Decode(g)
	if err != nil {
		return Result{}, err
	}
	return s.EvaluateParams(h, genomeHash(s.cfg.Seed, g)), nil
}

// noiseRands recycles the per-evaluation noise generator: a source is
// 4.9 kB for at most four draws.  Rand.Seed reseeds the noiseSource in
// O(1) and resets the read position, so a pooled generator yields the
// same stream as rand.New(rand.NewSource(key)).
var noiseRands = sync.Pool{New: func() any { return rand.New(new(noiseSource)) }}

// EvaluateParams scores decoded hyperparameters with the given noise
// stream key.
func (s *Evaluator) EvaluateParams(h hpo.HParams, noiseKey int64) Result {
	rng := noiseRands.Get().(*rand.Rand)
	defer noiseRands.Put(rng)
	rng.Seed(noiseKey)
	return s.evaluate(h, rng)
}

// evaluate scores h, drawing its noise from rng.
func (s *Evaluator) evaluate(h hpo.HParams, rng *rand.Rand) Result {
	noise := func() float64 {
		if s.cfg.NoiseScale == 0 {
			return 1
		}
		return math.Exp(rng.NormFloat64() * s.cfg.NoiseScale)
	}

	lrEff := nn.WorkerScale(h.ScaleByWorker, h.StartLR, s.cfg.Workers)
	// u is the log₁₀ misfit of the effective learning rate from its sweet
	// spot (≈4e-3, near Table 3's best start_lr values with "none").
	u := math.Log10(lrEff / 4e-3)
	// w parameterizes the energy↔force trade-off through stop_lr: a higher
	// stop rate leaves training in the force-dominated prefactor phase
	// longer (better forces, worse energies), a lower one buys extra
	// energy refinement at slight force cost — mirroring Table 3, where
	// the lowest-force solution has the highest stop_lr.
	w := math.Log10(h.StopLR / 3e-5)

	// ---- Failure hazard -------------------------------------------------
	if !s.cfg.DisableFailures {
		p := 0.0008 // residual hardware / node-failure hazard
		if lrEff > 0.045 {
			// The learning rate has been over-scaled (typically "linear"
			// at 6 workers with a large start_lr): divergence risk.
			p += 0.35 * math.Min(1, (lrEff-0.045)/0.015)
		}
		if (h.FittingActiv == "relu" || h.FittingActiv == "relu6") && lrEff > 0.025 {
			p += 0.12 // dead-unit collapse at high rate
		}
		if rng.Float64() < p {
			// Failed trainings die early — the paper observed "very short
			// runtimes corresponding to failed training tasks" (§3.2).
			return Result{Failed: true, Runtime: minutes(2 + 8*rng.Float64())}
		}
	}

	// ---- Force loss (eV/Å) ----------------------------------------------
	var lrF float64
	if u < 0 {
		// Undertrained: error grows quickly as the rate collapses.
		lrF = 0.30*u*u + 0.05*math.Abs(u*u*u)
	} else {
		lrF = 0.10 * u * u
	}
	if lrEff > 0.02 {
		// Surviving but unstable training: large, noisy errors.
		lrF += 2.5 * (lrEff - 0.02) / 0.02
	}
	tradeF := -0.12 * math.Tanh(w) // higher stop_lr → better forces
	stopF := 0.0
	if w < -1.2 {
		stopF = 0.10 * sq(w+1.2) // fine-tuning never completes
	}
	// The gentle exponential is the overall more-neighbours-more-accuracy
	// trend; the sharp sigmoid near 8.5 Å models the third coordination
	// shell of the melt falling outside the cutoff, which is what makes
	// rcut ≳ 8.5 a hard requirement for chemical accuracy (§3.2).
	rcutF := 0.55*math.Exp(-(h.RCut-6.2)/0.9) + 0.06*sigmoidFn((8.55-h.RCut)/0.10)
	smthF := 0.010 * sq((h.RCutSmth-3.2)/2.8)
	actF := fittingPenaltyF(h.FittingActiv) + descPenaltyF(h.DescActiv)
	scaleF := 0.0
	if h.ScaleByWorker == "linear" {
		scaleF = 0.03 // large-batch noise beyond the pure lr effect
	}
	force := 0.0375 * (1 + rcutF + lrF + tradeF + stopF + smthF + actF + scaleF) * noise()
	force = math.Max(force, 0.034)

	// ---- Energy loss (eV/atom) -------------------------------------------
	var lrE float64
	if u < 0 {
		lrE = 0.5*u*u + 0.08*math.Abs(u*u*u)
	} else {
		lrE = 0.4 * u * u
	}
	if lrEff > 0.02 {
		lrE += 6 * (lrEff - 0.02) / 0.02
	}
	tradeE := 1.1 * math.Tanh(w) // higher stop_lr → worse energies
	stopE := 0.0
	if w < -1.2 {
		stopE = 0.5 * sq(w+1.2)
	}
	rcutE := 1.5*math.Exp(-(h.RCut-6.0)/0.9) + 4.0*sigmoidFn((8.55-h.RCut)/0.10)
	smthE := 0.05 * sq((h.RCutSmth-3.0)/3.0)
	actE := fittingPenaltyE(h.FittingActiv) + descPenaltyE(h.DescActiv)
	energy := 0.00105 * (1 + rcutE + lrE + tradeE + stopE + smthE + actE) * noise()
	energy = math.Max(energy, 0.00035)

	// ---- Runtime ----------------------------------------------------------
	// Neighbour count grows with rcut³; activation choice changes the
	// kernel cost; everything stays under the paper's observed 80 minutes.
	rt := 30 + 0.020*h.RCut*h.RCut*h.RCut
	rt += activationCost(h.DescActiv)*2 + activationCost(h.FittingActiv)
	rt *= 1 + 0.04*rng.NormFloat64()
	if rt < 15 {
		rt = 15
	}

	return Result{EnergyLoss: energy, ForceLoss: force, Runtime: minutes(rt)}
}

// fittingPenaltyF: relative force-loss penalties for the fitting-network
// activation.  relu/relu6 are heavily penalized (they vanish from the
// final populations); softplus and sigmoid are excellent (§3.2).
func fittingPenaltyF(act string) float64 {
	switch act {
	case "relu":
		return 0.80
	case "relu6":
		return 0.70
	case "sigmoid":
		return 0.02
	case "softplus":
		return 0.00
	default: // tanh
		return 0
	}
}

func fittingPenaltyE(act string) float64 {
	switch act {
	case "relu":
		return 3.0
	case "relu6":
		return 2.5
	case "sigmoid":
		return -0.05
	case "softplus":
		return -0.08
	default:
		return 0
	}
}

// descPenaltyF: descriptor-network activation penalties.  sigmoid is
// excluded from chemically accurate solutions; softplus performs well;
// tanh is the default and fine.
func descPenaltyF(act string) float64 {
	switch act {
	case "relu":
		return 0.30
	case "relu6":
		return 0.26
	case "sigmoid":
		return 0.18
	case "softplus":
		return 0.005
	default:
		return 0
	}
}

func descPenaltyE(act string) float64 {
	switch act {
	case "relu":
		return 1.6
	case "relu6":
		return 1.3
	case "sigmoid":
		return 1.1
	case "softplus":
		return -0.03
	default:
		return 0
	}
}

// activationCost is the relative kernel cost in minutes added per network
// using the activation; transcendental activations cost more than relu.
func activationCost(act string) float64 {
	switch act {
	case "relu", "relu6":
		return 0
	case "sigmoid":
		return 2
	case "softplus":
		return 3
	default: // tanh
		return 2.5
	}
}

func sq(x float64) float64 { return x * x }

// sigmoidFn is the logistic function used for sharp-threshold terms.
func sigmoidFn(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

func minutes(m float64) time.Duration { return time.Duration(m * float64(time.Minute)) }

// genomeHash derives a deterministic per-genome noise key from the
// campaign seed and the genome bits.
func genomeHash(seed int64, g ea.Genome) int64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(seed))
	h.Write(buf[:])
	for _, v := range g {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return int64(h.Sum64())
}
