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
	PerRun    int
}

// ParallelScaling measures the wall-clock time of one fixed-size
// generation sweep as the evaluation parallelism grows — the property
// that makes EAs "inherently parallelizable … scalable and suitable for
// HPC platforms" (§1).  Each surrogate evaluation is padded with a fixed
// delay standing in for a training's wall time, so the measurement
// reflects scheduling rather than surrogate arithmetic.
func ParallelScaling(ctx context.Context, workerCounts []int, popSize, generations int,
	evalDelay time.Duration, seed int64) (*ScalingResult, error) {

	if len(workerCounts) == 0 {
		workerCounts = []int{1, 2, 4, 8}
	}
	base := surrogate.NewEvaluator(surrogate.Config{Seed: seed})
	delayed := ea.EvaluatorFunc(func(c context.Context, g ea.Genome) (ea.Fitness, error) {
		select {
		case <-time.After(evalDelay):
		case <-c.Done():
			return nil, c.Err()
		}
		return base.Evaluate(c, g)
	})

	out := &ScalingResult{EvalDelay: evalDelay, PerRun: popSize * (generations + 1)}
	var serial time.Duration
	for _, w := range workerCounts {
		start := time.Now()
		_, err := hpo.RunCampaign(ctx, hpo.CampaignConfig{
			Runs: 1, PopSize: popSize, Generations: generations,
			Evaluator: delayed, Parallelism: w,
			AnnealFactor: nsga2.PaperAnnealFactor, BaseSeed: seed,
		})
		if err != nil {
			return nil, err
		}
		wall := time.Since(start)
		e := ScalingEntry{Workers: w, WallTime: wall}
		if serial == 0 {
			serial = wall
		}
		e.Speedup = float64(serial) / float64(wall)
		e.Efficiency = e.Speedup / float64(w) * float64(workerCounts[0])
		out.Entries = append(out.Entries, e)
	}
	return out, nil
}

// Render formats the scaling table.
func (s *ScalingResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Strong scaling of parallel fitness evaluation (%d evaluations/run, %v per evaluation)\n",
		s.PerRun, s.EvalDelay)
	fmt.Fprintf(&b, "%8s %12s %9s %11s\n", "workers", "wall time", "speedup", "efficiency")
	for _, e := range s.Entries {
		fmt.Fprintf(&b, "%8d %12v %9.2f %10.0f%%\n",
			e.Workers, e.WallTime.Round(time.Millisecond), e.Speedup, e.Efficiency*100)
	}
	b.WriteString("(the paper runs one evaluation per Summit node: population 100 on 100 nodes)\n")
	return b.String()
}
