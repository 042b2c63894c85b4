package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/ea"
	"repro/internal/hpo"
	"repro/internal/nsga2"
	"repro/internal/surrogate"
)

// BaselineEntry scores one search strategy at a common budget.
type BaselineEntry struct {
	Name        string
	Budget      int
	Hypervolume float64
	FrontSize   int
	BestForce   float64
	BestEnergy  float64
	Accurate    int
}

// BaselineComparison holds the strategy table.
type BaselineComparison struct {
	Entries []BaselineEntry
}

// CompareBaselines pits NSGA-II against random search and a budget-
// matched coarse grid on the same surrogate landscape — the quantitative
// backing for §1's claim that grid search misses optima unless the grid
// is prohibitively fine, and §3.1's note that the EA needed orders of
// magnitude fewer trainings than a 10-point grid (10⁷).
func CompareBaselines(ctx context.Context, opts Options) (*BaselineComparison, error) {
	if opts.Runs <= 0 {
		opts = Options{Runs: 1, PopSize: 100, Generations: 6, Seed: 2023, Parallelism: 8}
	}
	budget := opts.Runs * opts.PopSize * (opts.Generations + 1)
	out := &BaselineComparison{}
	rep := hpo.PaperRepresentation()
	newEval := func() ea.Evaluator {
		return surrogate.NewEvaluator(surrogate.Config{Seed: opts.Seed})
	}

	// NSGA-II at the paper's configuration.
	camp, err := hpo.RunCampaign(ctx, hpo.CampaignConfig{
		Runs: opts.Runs, PopSize: opts.PopSize, Generations: opts.Generations,
		Evaluator: newEval(), Parallelism: opts.Parallelism,
		AnnealFactor: nsga2.PaperAnnealFactor, BaseSeed: opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	var allEA ea.Population
	for _, run := range camp.Runs {
		for _, gen := range run.Generations {
			allEA = append(allEA, gen.Evaluated...)
		}
	}
	out.Entries = append(out.Entries, scoreBaseline("NSGA-II (paper)", budget, allEA))

	// Random search with the identical budget.
	rs, err := randomSearch(ctx, newEval(), rep.Bounds, budget, opts.Parallelism, opts.Seed)
	if err != nil {
		return nil, err
	}
	out.Entries = append(out.Entries, scoreBaseline("random search", budget, rs))

	// The largest uniform grid fitting the budget: points^7 ≤ budget.
	points := 1
	for p := 2; p < 10; p++ {
		if pow(p, hpo.NumGenes) <= budget {
			points = p
		}
	}
	gs, err := gridSearch(ctx, newEval(), rep.Bounds, points, opts.Parallelism)
	if err != nil {
		return nil, err
	}
	out.Entries = append(out.Entries, scoreBaseline(fmt.Sprintf("grid search (%d points)", len(gs)), len(gs), gs))
	return out, nil
}

// randomSearch evaluates budget uniform samples of the bounds: random
// search (Bergstra & Bengio 2012, the paper's [2]), the strongest simple
// baseline for HPO.
func randomSearch(ctx context.Context, ev ea.Evaluator, bounds ea.Bounds, budget, parallelism int,
	seed int64) (ea.Population, error) {
	if budget <= 0 {
		return nil, fmt.Errorf("experiments: random search budget must be positive")
	}
	rng := rand.New(rand.NewSource(seed))
	pop := ea.RandomPopulation(rng, bounds, budget, 0)
	return evalBaseline(ctx, ev, pop, parallelism)
}

// gridSearch evaluates the full factorial grid of points cell centres per
// gene: brute-force grid search, which §1 notes "has been shown to be
// prone to missing optimal values unless a very fine grid is used".  Cell
// centres cover the range without doubling endpoints and land
// categorical genes mid-bin.  Gene 0 varies fastest.
func gridSearch(ctx context.Context, ev ea.Evaluator, bounds ea.Bounds, points, parallelism int) (ea.Population, error) {
	n := pow(points, len(bounds))
	pop := make(ea.Population, n)
	for k := range pop {
		genome := make(ea.Genome, len(bounds))
		rest := k
		for g := range bounds {
			genome[g] = bounds[g].Lo + bounds[g].Width()*(float64(rest%points)+0.5)/float64(points)
			rest /= points
		}
		pop[k] = ea.NewIndividual(genome)
	}
	return evalBaseline(ctx, ev, pop, parallelism)
}

func evalBaseline(ctx context.Context, ev ea.Evaluator, pop ea.Population, parallelism int) (ea.Population, error) {
	pop = ea.EvalPool(ctx, ea.Source(pop), len(pop), ev, ea.PoolConfig{
		Parallelism: parallelism, Objectives: 2,
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return pop, nil
}

func pow(b, e int) int {
	n := 1
	for i := 0; i < e; i++ {
		n *= b
	}
	return n
}

func scoreBaseline(name string, budget int, pop ea.Population) BaselineEntry {
	e := BaselineEntry{Name: name, Budget: budget, BestForce: 1e9, BestEnergy: 1e9}
	ok := dropFailures(pop)
	for _, ind := range ok {
		if ind.Fitness[1] < e.BestForce {
			e.BestForce = ind.Fitness[1]
		}
		if ind.Fitness[0] < e.BestEnergy {
			e.BestEnergy = ind.Fitness[0]
		}
		if hpo.ChemicallyAccurate(ind.Fitness) {
			e.Accurate++
		}
	}
	e.Hypervolume = nsga2.Hypervolume2D(pop, RefPoint)
	e.FrontSize = len(nsga2.NonDominated(ok))
	return e
}

func dropFailures(pop ea.Population) ea.Population {
	var out ea.Population
	for _, ind := range pop {
		if ind.Evaluated && !ind.Fitness.IsFailure() {
			out = append(out, ind)
		}
	}
	return out
}

// Render formats the comparison.
func (b *BaselineComparison) Render() string {
	var s strings.Builder
	s.WriteString("Search-strategy comparison at matched evaluation budget\n")
	s.WriteString("(the paper's 10-points-per-gene grid would need 10^7 trainings; the grid row\n")
	s.WriteString(" shows the best full factorial that fits the EA's budget — its coarseness is the point)\n\n")
	fmt.Fprintf(&s, "%-28s %8s %12s %7s %11s %12s %9s\n",
		"strategy", "budget", "hypervolume", "front", "best force", "best energy", "accurate")
	for _, e := range b.Entries {
		fmt.Fprintf(&s, "%-28s %8d %12.6f %7d %11.4f %12.4f %9d\n",
			e.Name, e.Budget, e.Hypervolume, e.FrontSize, e.BestForce, e.BestEnergy, e.Accurate)
	}
	return s.String()
}
