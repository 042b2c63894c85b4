package hpo

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/ea"
	"repro/internal/nsga2"
)

// newSeededRand builds a deterministic rand for model initialization.
func newSeededRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// CampaignConfig describes one or more independent NSGA-II deployments,
// the paper's five 100-node Summit jobs (§2.2.5, §3.1).
type CampaignConfig struct {
	// Runs is the number of independent EA deployments (5 in the paper).
	Runs int
	// PopSize is parents = offspring per generation (100 in the paper,
	// one per Summit node).
	PopSize int
	// Generations is the number of offspring generations (6 in the paper,
	// giving 7 evaluation rounds including generation 0).
	Generations int
	// Evaluator scores genomes; typically a surrogate or a
	// WorkflowEvaluator.
	Evaluator ea.Evaluator
	// Parallelism is concurrent evaluations per run (the worker count).
	Parallelism int
	// Workers, if non-nil, runs every run's evaluations (ea.PoolConfig's
	// Workers); each run otherwise starts its own.
	Workers *ea.Workers
	// EvalTimeout is the per-evaluation wall limit (2 h in the paper).
	EvalTimeout time.Duration
	// AnnealFactor multiplies mutation σ per generation; zero means
	// nsga2.PaperAnnealFactor (0.85).
	AnnealFactor float64
	// BaseSeed seeds run r with BaseSeed + r.
	BaseSeed int64
	// Observer, if non-nil, receives per-run, per-generation progress.
	Observer func(run, gen int, evaluated, survivors ea.Population)
}

// CampaignResult aggregates the independent runs.
type CampaignResult struct {
	Runs []*nsga2.Result
}

// LastGenerations pools the final surviving populations of all runs: the
// solution set the paper analyzes in Figs. 2–3 and Tables 2–3.
func (c *CampaignResult) LastGenerations() ea.Population {
	var pool ea.Population
	for _, r := range c.Runs {
		pool = append(pool, r.Final...)
	}
	return pool
}

// ParetoFront returns the non-dominated subset of the pooled last
// generations (Fig. 2).
func (c *CampaignResult) ParetoFront() ea.Population {
	return nsga2.NonDominated(c.LastGenerations())
}

// TotalEvaluations counts all trainings across runs (3500 in the paper).
func (c *CampaignResult) TotalEvaluations() int {
	n := 0
	for _, r := range c.Runs {
		n += r.TotalEvaluations()
	}
	return n
}

// TotalFailures counts failed trainings across runs (25 in the paper).
func (c *CampaignResult) TotalFailures() int {
	n := 0
	for _, r := range c.Runs {
		n += r.TotalFailures()
	}
	return n
}

// LastGenFailures counts failures in the final generation of every run
// (0 in the paper).
func (c *CampaignResult) LastGenFailures() int {
	n := 0
	for _, r := range c.Runs {
		if len(r.Generations) > 0 {
			n += r.Generations[len(r.Generations)-1].Failures
		}
	}
	return n
}

// RunCampaign executes the configured number of independent NSGA-II runs
// and returns their pooled results.  It is ContinueCampaign with no
// previous campaign.
func RunCampaign(ctx context.Context, cfg CampaignConfig) (*CampaignResult, error) {
	return ContinueCampaign(ctx, cfg, nil)
}

// ContinueCampaign carries a campaign on from its log, as the paper's
// campaigns outlived Summit's 12-hour job cap (§2.2.5): run r is
// ContinueRun from prev.Runs[r], so it replays what the log holds,
// evaluates the rest up to Generations, and ends on the bits of a
// campaign that never stopped.  A nil prev starts every run fresh; prev
// may not have more runs than cfg.  Observer sees only the generations
// this call evaluates.
//
// The runs go one after another on purpose: Parallelism bounds the
// evaluations in flight for the whole call, and one-shot callers hand it
// evaluators that are safe only under that bound.  The campaign service,
// whose evaluator is concurrency-safe, runs each run on its own instead.
func ContinueCampaign(ctx context.Context, cfg CampaignConfig, prev *CampaignResult) (*CampaignResult, error) {
	if cfg.Runs <= 0 {
		return nil, fmt.Errorf("hpo: Runs must be positive")
	}
	if prev == nil {
		prev = &CampaignResult{}
	}
	if len(prev.Runs) > cfg.Runs {
		return nil, fmt.Errorf("hpo: the log has %d runs, the campaign %d", len(prev.Runs), cfg.Runs)
	}
	out := &CampaignResult{}
	for r := 0; r < cfg.Runs; r++ {
		var logged *nsga2.Result
		if r < len(prev.Runs) {
			logged = prev.Runs[r]
		}
		res, err := ContinueRun(ctx, cfg, r, logged)
		if err != nil {
			return out, err
		}
		out.Runs = append(out.Runs, res)
	}
	return out, nil
}

// ContinueRun carries run r of the campaign cfg describes on from prev,
// its log: nsga2.Continue on the Table 1 genome with seed BaseSeed + r,
// which replays prev's generations, evaluates the rest up to Generations
// and refuses a log this run would not have written, naming the
// generation and position.
// A nil prev, or one without records, starts the run fresh.  cfg.Runs is
// not read, and Observer sees run r's generations this call evaluates.
func ContinueRun(ctx context.Context, cfg CampaignConfig, r int, prev *nsga2.Result) (*nsga2.Result, error) {
	rep := PaperRepresentation()
	var observer func(gen int, evaluated, survivors ea.Population)
	if cfg.Observer != nil {
		observer = func(gen int, evaluated, survivors ea.Population) {
			cfg.Observer(r, gen, evaluated, survivors)
		}
	}
	var logged []nsga2.GenerationRecord
	if prev != nil {
		logged = prev.Generations
	}
	res, err := nsga2.Continue(ctx, nsga2.Config{
		PopSize:      cfg.PopSize,
		Generations:  cfg.Generations,
		Bounds:       rep.Bounds,
		InitialStd:   rep.Std,
		AnnealFactor: cfg.AnnealFactor,
		Evaluator:    cfg.Evaluator,
		Pool:         poolFromConfig(cfg),
		Seed:         cfg.BaseSeed + int64(r),
		Observer:     observer,
	}, logged)
	if err != nil {
		return nil, fmt.Errorf("hpo: run %d: %w", r, err)
	}
	return res, nil
}

func poolFromConfig(cfg CampaignConfig) ea.PoolConfig {
	return ea.PoolConfig{
		Parallelism: cfg.Parallelism,
		Timeout:     cfg.EvalTimeout,
		Objectives:  2,
		Workers:     cfg.Workers,
	}
}

// ChemicallyAccurate reports whether a fitness meets the paper's §3.2
// thresholds: energy error below 0.004 eV/atom and force error below
// 0.04 eV/Å.
func ChemicallyAccurate(f ea.Fitness) bool {
	const (
		energyLimit = 0.004 // eV/atom
		forceLimit  = 0.04  // eV/Å
	)
	return len(f) == 2 && !f.IsFailure() && f[0] < energyLimit && f[1] < forceLimit
}

// FilterChemicallyAccurate returns the members meeting the chemical
// accuracy thresholds (the blue lines of Fig. 3).
func FilterChemicallyAccurate(pop ea.Population) ea.Population {
	var out ea.Population
	for _, ind := range pop {
		if ind.Evaluated && ChemicallyAccurate(ind.Fitness) {
			out = append(out, ind)
		}
	}
	return out
}
