package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/ea"
	"repro/internal/hpo"
	"repro/internal/nsga2"
	"repro/internal/surrogate"
)

// ScalingEntry measures one worker count.
type ScalingEntry struct {
	Workers    int
	WallTime   time.Duration
	Speedup    float64
	Efficiency float64
}

// ScalingResult is the strong-scaling table.
type ScalingResult struct {
	Entries   []ScalingEntry
	EvalDelay time.Duration
	// Opts is the campaign every worker count ran; Evaluations counts
	// the evaluations one such campaign made.
	Opts        Options
	Evaluations int
}

// ParallelScaling measures the wall-clock time of one campaign of
// opts.Runs × opts.PopSize × (opts.Generations+1) evaluations on
// opts.Seed as the evaluation parallelism grows through the powers of
// two up to opts.Parallelism — the property that makes EAs "inherently
// parallelizable … scalable and suitable for HPC platforms" (§1).  Each
// surrogate evaluation is padded with a fixed delay standing in for a
// training's wall time, so the measurement reflects scheduling rather
// than surrogate arithmetic.
func ParallelScaling(ctx context.Context, opts Options, evalDelay time.Duration) (*ScalingResult, error) {
	base := surrogate.NewEvaluator(surrogate.Config{Seed: opts.Seed})
	delayed := ea.EvaluatorFunc(func(c context.Context, g ea.Genome) (ea.Fitness, error) {
		select {
		case <-time.After(evalDelay):
		case <-c.Done():
			return nil, c.Err()
		}
		return base.Evaluate(c, g)
	})

	out := &ScalingResult{EvalDelay: evalDelay, Opts: opts}
	var serial time.Duration
	for w := 1; w == 1 || w <= opts.Parallelism; w *= 2 {
		start := time.Now()
		res, err := hpo.RunCampaign(ctx, hpo.CampaignConfig{
			Runs: opts.Runs, PopSize: opts.PopSize, Generations: opts.Generations,
			Evaluator: delayed, Parallelism: w,
			AnnealFactor: nsga2.PaperAnnealFactor, BaseSeed: opts.Seed,
		})
		if err != nil {
			return nil, err
		}
		wall := time.Since(start)
		if serial == 0 {
			serial = wall
		}
		speedup := float64(serial) / float64(wall)
		out.Entries = append(out.Entries, ScalingEntry{
			Workers: w, WallTime: wall, Speedup: speedup, Efficiency: speedup / float64(w),
		})
		out.Evaluations = res.TotalEvaluations()
	}
	return out, nil
}

// Render formats the scaling table.
func (s *ScalingResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Strong scaling of parallel fitness evaluation (%d evaluations: %d runs × %d individuals × %d generations, %v per evaluation)\n",
		s.Evaluations, s.Opts.Runs, s.Opts.PopSize, s.Opts.Generations+1, s.EvalDelay)
	fmt.Fprintf(&b, "%8s %12s %9s %11s\n", "workers", "wall time", "speedup", "efficiency")
	for _, e := range s.Entries {
		fmt.Fprintf(&b, "%8d %12v %9.2f %10.0f%%\n",
			e.Workers, e.WallTime.Round(time.Millisecond), e.Speedup, e.Efficiency*100)
	}
	b.WriteString("(the paper runs one evaluation per Summit node: population 100 on 100 nodes)\n")
	return b.String()
}
