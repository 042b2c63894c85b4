// Package core is the library facade: one import that exposes the
// reproduction's primary workflow — multiobjective hyperparameter
// optimization of deep-potential training with NSGA-II — without
// requiring callers to know the internal package layout.
//
// The typical user journey:
//
//	cfg := core.DefaultCampaign()          // the paper's setup (Table 1, §2.2)
//	cfg.Runs, cfg.PopSize = 2, 30          // scale to taste
//	campaign, err := core.RunCampaign(ctx, cfg)
//	front := campaign.Result.ParetoFront() // Fig. 2
//
// For generic multiobjective optimization, use Minimize with any
// Evaluator.  For the full per-figure reproductions, see
// internal/experiments and cmd/experiments.
package core

import (
	"context"
	"time"

	"repro/internal/ea"
	"repro/internal/experiments"
	"repro/internal/hpo"
	"repro/internal/nsga2"
	"repro/internal/surrogate"
)

// Re-exported fundamental types.
type (
	// Genome is a real-valued genome vector.
	Genome = ea.Genome
	// Fitness is a vector of minimized objectives.
	Fitness = ea.Fitness
	// Individual is one population member.
	Individual = ea.Individual
	// Population is an ordered individual collection.
	Population = ea.Population
	// Evaluator scores genomes.
	Evaluator = ea.Evaluator
	// EvaluatorFunc adapts a function to Evaluator.
	EvaluatorFunc = ea.EvaluatorFunc
	// Bounds are per-gene intervals.
	Bounds = ea.Bounds
	// Interval is a closed real interval.
	Interval = ea.Interval
	// HParams is a decoded DeePMD hyperparameter set.
	HParams = hpo.HParams
	// Campaign is a finished paper campaign with its surrogate.
	Campaign = experiments.Campaign
	// NSGAConfig configures a single NSGA-II run.
	NSGAConfig = nsga2.Config
	// NSGAResult is a finished NSGA-II run.
	NSGAResult = nsga2.Result
)

// CampaignOptions scales the paper's experiment.
type CampaignOptions = experiments.Options

// DefaultCampaign returns the paper-scale configuration: 5 independent
// runs, population 100, 6 offspring generations (3500 trainings).
func DefaultCampaign() CampaignOptions { return experiments.PaperOptions() }

// RunCampaign executes the paper's hyperparameter-optimization campaign
// against the Summit-training surrogate.
func RunCampaign(ctx context.Context, opts CampaignOptions) (*Campaign, error) {
	return experiments.RunPaperCampaign(ctx, opts)
}

// Minimize runs NSGA-II on an arbitrary multiobjective problem: popSize
// individuals for generations rounds within bounds, mutating with the
// given per-gene σ.  A gentle 0.95 annealing factor suits generic
// problems that need sustained exploration; the paper's campaign itself
// (RunCampaign) uses the more aggressive 0.85 of §2.2.3, appropriate when
// the initial population already clusters near the optimum.
func Minimize(ctx context.Context, ev Evaluator, bounds Bounds, std []float64,
	popSize, generations int, seed int64) (*NSGAResult, error) {
	return nsga2.Run(ctx, nsga2.Config{
		PopSize:      popSize,
		Generations:  generations,
		Bounds:       bounds,
		InitialStd:   std,
		AnnealFactor: 0.95,
		Evaluator:    ev,
		Pool:         ea.PoolConfig{Parallelism: 8, Objectives: 2},
		Seed:         seed,
	})
}

// ParetoFront filters a population to its non-dominated subset.
func ParetoFront(pop Population) Population { return nsga2.NonDominated(pop) }

// Decode maps the seven-gene genome to DeePMD hyperparameters with the
// paper's floor-modulus categorical rule.
func Decode(g Genome) (HParams, error) { return hpo.Decode(g) }

// Encode builds a genome decoding to the given hyperparameters.
func Encode(h HParams) (Genome, error) { return hpo.Encode(h) }

// PaperBounds returns Table 1's initialization ranges.
func PaperBounds() Bounds { return hpo.PaperRepresentation().Bounds }

// PaperStd returns Table 1's mutation standard deviations.
func PaperStd() []float64 { return hpo.PaperRepresentation().Std }

// ChemicallyAccurate applies the paper's §3.2 accuracy thresholds
// (energy < 0.004 eV/atom, force < 0.04 eV/Å) to a fitness.
func ChemicallyAccurate(f Fitness) bool { return hpo.ChemicallyAccurate(f) }

// NewSurrogate builds the Summit-training surrogate evaluator.
func NewSurrogate(seed int64) Evaluator {
	return surrogate.NewEvaluator(surrogate.Config{Seed: seed})
}

// EvalTimeout is the paper's per-training wall-clock limit.
const EvalTimeout = 2 * time.Hour

// Hypervolume2D is the exact bi-objective hypervolume indicator.
func Hypervolume2D(pop Population, ref Fitness) float64 {
	return nsga2.Hypervolume2D(pop, ref)
}
