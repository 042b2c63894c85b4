package main

import (
	"fmt"
	"math"
)

// shape is the size of one campaign; it becomes the service.Spec body of
// a POST /v1/campaigns.
type shape struct {
	runs, pop, gens, par int
}

// evals is the number of individuals a campaign of this shape scores,
// memo hits included: generation 0 plus gens offspring generations.
func (s shape) evals() int { return s.runs * s.pop * (s.gens + 1) }

// backend selects what a fleet worker runs per genome.
type backend int

const (
	surrogateBackend backend = iota // surrogate.Evaluator, microseconds
	replayBackend                   // surrogate fitness after sleeping its predicted runtime
	realBackend                     // hpo.WorkflowEvaluator + hpo.RealTrainer
)

// workload is one fixed-work benchmark scenario.  A wave is the set of
// campaigns POSTed together: every tenant posts perTenant campaigns at
// the wave's start, and the next wave starts when the last of them is
// done.  The sequential workloads are waves of one campaign.
type workload struct {
	name string
	why  string // one line, copied into BENCHMARK.json

	backend backend
	workers int // fleet size

	campaign  shape
	waves     int      // at -seconds referenceSeconds, see scaled
	tenants   []string // twinOf maps a tenant onto the tenant whose seeds it reuses
	twinOf    map[string]string
	perTenant int
	clients   int // driver connections, one goroutine each

	// The warm-up is warmWaves waves of warmPerTenant campaigns of
	// shape warm per tenant, run before the window opens.
	warm          shape
	warmWaves     int
	warmPerTenant int

	// maxInFlight is service.Config.MaxInFlightPerTenant; 0 keeps the
	// service default.
	maxInFlight int

	// timeBound, when not 0, is the bound this workload's time metrics
	// repeat to and -aa holds them to.  BENCHMARK.json has one bound per
	// metric for all workloads, so the workload's why states it.
	timeBound float64

	// replayDiv divides surrogate.Result.Runtime into the replay sleep.
	replayDiv int64
	// atoms sizes the generated dataset; trainSteps and valFrames size
	// one real training on it.
	atoms, trainSteps, valFrames int
	// template is the input.json template; "" is the shipped default,
	// the paper network.
	template string
}

// referenceSeconds is BENCHMARK.json's run_seconds, the -seconds the
// benchmark's driver passes to every run, and so the -seconds at which
// the wave counts below apply as written.
const referenceSeconds = 25

var paper = shape{runs: 5, pop: 100, gens: 6, par: 100}

var workloads = []workload{
	{
		name:    "paper_surrogate_serve",
		why:     "Paper campaigns back to back on a us-cost evaluator: EA bookkeeping, per-leg resume + checkpoint rewrite and dispatch do all the work",
		backend: surrogateBackend, workers: 2,
		campaign: paper, waves: 50, tenants: []string{"bench"}, perTenant: 1, clients: 1,
		warm: paper, warmWaves: 2, warmPerTenant: 1,
		maxInFlight: 128,
	},
	{
		name:    "paper_replay_fleet",
		why:     "Paper campaigns on a 100-worker fleet sleeping the surrogate's scaled runtimes: evaluation and the barrier dominate. Repeats to ~1%: hold its time metrics to 0.03 (this file has one bound per metric)",
		backend: replayBackend, workers: 100,
		campaign: paper, waves: 3, tenants: []string{"bench"}, perTenant: 1, clients: 1,
		warm: shape{runs: 1, pop: 100, gens: 3, par: 100}, warmWaves: 1, warmPerTenant: 1,
		maxInFlight: 128,
		timeBound:   0.03,
		replayDiv:   16000,
	},
	{
		name:    "real_trainer_campaign",
		why:     "Small campaigns on one worker running the shipped deepmd trainer on a 20-atom streamed dataset: numeric kernels do >98% of the work",
		backend: realBackend, workers: 1,
		campaign: shape{runs: 1, pop: 6, gens: 1, par: 6}, waves: 3, tenants: []string{"bench"}, perTenant: 1, clients: 1,
		warm: shape{runs: 1, pop: 2, gens: 0, par: 2}, warmWaves: 1, warmPerTenant: 1,
		atoms: 20, trainSteps: 2, valFrames: 4,
	},
	{
		name:    "tenant_burst_serve",
		why:     "Four tenants each burst 8 small campaigns per wave, two reusing the others' seeds: admission fairness, concurrent legs, ~50% memo hits and singleflight waits",
		backend: surrogateBackend, workers: 2,
		campaign: shape{runs: 1, pop: 50, gens: 20, par: 16}, waves: 5,
		tenants: []string{"a", "b", "c", "d"}, twinOf: map[string]string{"c": "a", "d": "b"},
		perTenant: 8, clients: 2,
		warm: shape{runs: 1, pop: 50, gens: 20, par: 16}, warmWaves: 1, warmPerTenant: 2,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scaled returns w with its wave count scaled from referenceSeconds to
// seconds.  The benchmark's driver passes -seconds on every run, always
// BENCHMARK.json's run_seconds, so under it the counts are the ones in
// the table above.  Work stays fixed by count: -seconds only picks the
// count, and a run is never cut short.
func (w workload) scaled(seconds int) workload {
	w.waves = int(math.Max(1, math.Round(float64(w.waves)*float64(seconds)/referenceSeconds)))
	return w
}

// baseSeed derives a campaign's base_seed from the run seed.  Campaigns
// are spaced 16 apart because run r of a campaign is seeded base+r and a
// spec holds at most 16 runs; closer spacing would make neighbouring
// campaigns share runs and turn the miss-path workload into memo hits.
// slot numbers the campaigns a tenant posts over the whole process
// (warm-up included); lane separates tenants that do not share seeds.
func baseSeed(seed int64, lane, slot int) int64 {
	return seed<<24 + int64(lane)<<16 + int64(slot)*16
}
