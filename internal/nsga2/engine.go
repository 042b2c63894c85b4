package nsga2

import (
	"math/rand"

	"repro/internal/ea"
)

// engine is the state of one NSGA-II search, shared by the generational
// (Run) and steady-state (RunSteadyState) policies: the run's only RNG,
// the σ context, the evaluated population and the initial members.  A
// policy alternates ask (what to evaluate next) and tell (what came
// back); it owns evaluation, annealing cadence and bookkeeping.
type engine struct {
	cfg     Config
	rng     *rand.Rand
	eaCtx   *ea.Context
	breeder func(rng *rand.Rand, eaCtx *ea.Context, parents ea.Population, gen int) ea.Stream
	pop     ea.Population // evaluated members, at most PopSize after each tell
	initial ea.Population // generation 0: a random population or Initial.Clone()
	handed  int           // initial members already returned by ask
}

// newEngine validates cfg, fills its defaults, seeds the RNG and draws
// (or copies) generation 0.
func newEngine(cfg Config) (*engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.AnnealFactor == 0 {
		cfg.AnnealFactor = PaperAnnealFactor
	}
	if cfg.Pool.Objectives <= 0 {
		cfg.Pool.Objectives = 2
	}
	e := &engine{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		eaCtx:   ea.NewContext(cfg.InitialStd),
		breeder: cfg.Breeder,
	}
	if cfg.Initial != nil {
		e.initial = cfg.Initial.Clone()
	} else {
		e.initial = ea.RandomPopulation(e.rng, cfg.Bounds, cfg.PopSize, 0)
	}
	if e.breeder == nil {
		e.breeder = func(rng *rand.Rand, eaCtx *ea.Context, parents ea.Population, gen int) ea.Stream {
			return ea.Pipe(
				ea.RandomSelection(rng, parents),
				ea.Clone(),
				ea.MutateGaussian(rng, eaCtx, cfg.Bounds),
				ea.SetBirth(gen),
			)
		}
	}
	return e, nil
}

// ask returns the next individuals to evaluate.  While initial members
// remain it returns up to n of them; after that it takes n offspring born
// in generation gen from one breeder stream over the current population
// (over the first initial member while no result has been told yet).
func (e *engine) ask(n, gen int) ea.Population {
	if e.handed < len(e.initial) {
		end := min(e.handed+n, len(e.initial))
		batch := e.initial[e.handed:end]
		e.handed = end
		return batch
	}
	parents := e.pop
	if len(parents) == 0 {
		parents = e.initial[:1]
	}
	return ea.Take(e.breeder(e.rng, e.eaCtx, parents, gen), n)
}

// tell merges evaluated individuals into the population and, once it is
// larger than PopSize, cuts it back with Select.  A population that needs
// no cut is still ranked, because a tournament breeder reads ranks.  The
// population slice is never appended to in place, so a slice handed out
// earlier (a generation's survivors) stays intact.
func (e *engine) tell(evaluated ea.Population) {
	e.pop = append(e.pop[:len(e.pop):len(e.pop)], evaluated...)
	if len(e.pop) > e.cfg.PopSize {
		e.pop = Select(e.pop, e.cfg.PopSize)
		return
	}
	CrowdingDistanceAll(RankOrdinalSort(e.pop))
}
