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
	// EvalTimeout is the per-evaluation wall limit (2 h in the paper).
	EvalTimeout time.Duration
	// AnnealFactor multiplies mutation σ per generation (0.85).
	AnnealFactor float64
	// BaseSeed seeds run r with BaseSeed + r.
	BaseSeed int64
	// Representation defaults to PaperRepresentation when zero.
	Representation Representation
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
// sequentially and returns their pooled results.  It stays sequential on
// purpose: Parallelism bounds the evaluations in flight for the whole
// call, and one-shot callers hand it evaluators that are safe only under
// that bound (Parallelism 1 means never called concurrently).  A caller
// whose evaluator is concurrency-safe and who wants the runs to overlap
// — the campaign service — calls it once per run with Runs 1 and
// BaseSeed+r, then ResumeRun.
func RunCampaign(ctx context.Context, cfg CampaignConfig) (*CampaignResult, error) {
	if cfg.Runs <= 0 {
		return nil, fmt.Errorf("hpo: Runs must be positive")
	}
	rep := cfg.Representation
	if rep.Bounds == nil {
		rep = PaperRepresentation()
	}
	out := &CampaignResult{}
	for run := 0; run < cfg.Runs; run++ {
		runIdx := run
		var observer func(gen int, evaluated, survivors ea.Population)
		if cfg.Observer != nil {
			observer = func(gen int, evaluated, survivors ea.Population) {
				cfg.Observer(runIdx, gen, evaluated, survivors)
			}
		}
		res, err := nsga2.Run(ctx, nsga2.Config{
			PopSize:      cfg.PopSize,
			Generations:  cfg.Generations,
			Bounds:       rep.Bounds,
			InitialStd:   rep.Std,
			AnnealFactor: cfg.AnnealFactor,
			Evaluator:    cfg.Evaluator,
			Pool: ea.PoolConfig{
				Parallelism: cfg.Parallelism,
				Timeout:     cfg.EvalTimeout,
				Objectives:  2,
			},
			Seed:     cfg.BaseSeed + int64(run),
			Observer: observer,
		})
		if err != nil {
			return out, fmt.Errorf("hpo: run %d: %w", run, err)
		}
		out.Runs = append(out.Runs, res)
	}
	return out, nil
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
