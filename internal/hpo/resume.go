package hpo

import (
	"context"
	"fmt"
	"math"

	"repro/internal/ea"
	"repro/internal/nsga2"
)

// ResumeCampaign continues a finished (or walltime-killed) campaign for
// moreGens additional generations per run: the operational pattern behind
// the paper's 12-hour Summit batch jobs (§2.2.5), where long campaigns
// must span multiple submissions.  It is ResumeRun applied to every run
// in turn; the returned result contains the original generations
// followed by the new ones with continued indices.
func ResumeCampaign(ctx context.Context, prev *CampaignResult, cfg CampaignConfig, moreGens int) (*CampaignResult, error) {
	if prev == nil || len(prev.Runs) == 0 {
		return nil, fmt.Errorf("hpo: nothing to resume")
	}
	out := &CampaignResult{}
	for runIdx, run := range prev.Runs {
		res, err := ResumeRun(ctx, run, cfg, runIdx, moreGens)
		if err != nil {
			return out, err
		}
		out.Runs = append(out.Runs, res)
	}
	return out, nil
}

// ResumeRun continues run runIdx of a campaign for moreGens additional
// generations.  The run warm-starts from its final surviving population,
// the mutation σ resumes from its annealed value (σ₀ · anneal^gensDone),
// and the RNG is seeded ResumeSeed(cfg.BaseSeed, runIdx, gensDone) — a
// function of how far this run has come and of nothing else, so runs of
// one campaign can be resumed in any order, or concurrently, and land on
// the same records.  run is not modified; the result holds its
// generation records followed by the new ones.
func ResumeRun(ctx context.Context, run *nsga2.Result, cfg CampaignConfig, runIdx, moreGens int) (*nsga2.Result, error) {
	if moreGens <= 0 {
		return nil, fmt.Errorf("hpo: moreGens must be positive")
	}
	if run == nil || len(run.Final) == 0 {
		return nil, fmt.Errorf("hpo: run %d has no final population", runIdx)
	}
	rep := cfg.Representation
	if rep.Bounds == nil {
		rep = PaperRepresentation()
	}
	anneal := cfg.AnnealFactor
	if anneal == 0 {
		anneal = 0.85
	}
	gensDone := len(run.Generations) - 1
	if gensDone < 0 {
		gensDone = 0
	}
	std := make([]float64, len(rep.Std))
	decay := math.Pow(anneal, float64(gensDone))
	for i, s := range rep.Std {
		std[i] = s * decay
	}
	popSize := cfg.PopSize
	if popSize == 0 {
		popSize = len(run.Final)
	}
	if popSize != len(run.Final) {
		return nil, fmt.Errorf("hpo: run %d final population %d != PopSize %d",
			runIdx, len(run.Final), popSize)
	}
	res, err := nsga2.Run(ctx, nsga2.Config{
		PopSize:      popSize,
		Generations:  moreGens,
		Bounds:       rep.Bounds,
		InitialStd:   std,
		AnnealFactor: anneal,
		Evaluator:    cfg.Evaluator,
		Pool:         poolFromConfig(cfg),
		Seed:         ResumeSeed(cfg.BaseSeed, runIdx, gensDone),
		Initial:      run.Final,
	})
	if err != nil {
		return nil, fmt.Errorf("hpo: resuming run %d: %w", runIdx, err)
	}
	// Stitch: original generations, then the new offspring generations
	// (the warm-start "generation 0" duplicates the previous final
	// population and is dropped).
	combined := &nsga2.Result{Final: res.Final}
	combined.Generations = append(combined.Generations, run.Generations...)
	for _, rec := range res.Generations[1:] {
		rec.Gen = gensDone + rec.Gen
		combined.Generations = append(combined.Generations, rec)
	}
	return combined, nil
}

// ResumeSeed derives the mutation-RNG seed for one resume leg from the
// campaign base seed, the run index and the number of generations the run
// has already completed.  Folding gensDone in is what makes chained legs
// statistically independent: a seed that depends only on (BaseSeed,
// runIdx) — as the original `BaseSeed + runIdx + 7919` did — hands every
// resume leg of the same run the identical RNG stream, so a campaign
// chained across three 12-hour jobs mutates with the same noise in legs
// two and three that it used in leg one.  The splitmix64 finalizer chain
// also removes the additive-offset collisions the fixed `+7919` had with
// first-leg seeds (`BaseSeed + runIdx'`) in wide campaigns.
func ResumeSeed(base int64, runIdx, gensDone int) int64 {
	z := splitmix64(uint64(base) + 0x9e3779b97f4a7c15)
	z = splitmix64(z + uint64(runIdx))
	z = splitmix64(z + uint64(gensDone))
	return int64(z)
}

// splitmix64 is the SplitMix64 finalizer: a bijective avalanche mix, so
// distinct (base, runIdx, gensDone) triples cannot collide by simple
// integer offsets.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

func poolFromConfig(cfg CampaignConfig) ea.PoolConfig {
	return ea.PoolConfig{
		Parallelism: cfg.Parallelism,
		Timeout:     cfg.EvalTimeout,
		Objectives:  2,
	}
}
