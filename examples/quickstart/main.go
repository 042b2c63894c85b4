// Quickstart: minimize a classic two-objective benchmark (ZDT1) with the
// library's NSGA-II in ~40 lines, then print the Pareto front.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"sort"

	"repro/internal/ea"
	"repro/internal/nsga2"
)

func main() {
	// ZDT1: f1 = x0, f2 = g·(1 − sqrt(f1/g)), g = 1 + 9·mean(x1..xn).
	// True Pareto front: f2 = 1 − sqrt(f1) at x1..xn = 0.
	const dim = 10
	zdt1 := ea.EvaluatorFunc(func(_ context.Context, x ea.Genome) (ea.Fitness, error) {
		f1 := x[0]
		s := 0.0
		for _, xi := range x[1:] {
			s += xi
		}
		g := 1 + 9*s/float64(dim-1)
		return ea.Fitness{f1, g * (1 - math.Sqrt(f1/g))}, nil
	})

	bounds := make(ea.Bounds, dim)
	std := make([]float64, dim)
	for i := range bounds {
		bounds[i] = ea.Interval{Lo: 0, Hi: 1}
		std[i] = 0.3
	}

	// A gentler anneal than the paper's 0.85 keeps a generic problem exploring.
	res, err := nsga2.Run(context.Background(), nsga2.Config{
		PopSize: 60, Generations: 80, Bounds: bounds, InitialStd: std, AnnealFactor: 0.95,
		Evaluator: zdt1, Pool: ea.PoolConfig{Parallelism: 8, Objectives: 2}, Seed: 42,
	})
	if err != nil {
		log.Fatal(err)
	}

	front := nsga2.NonDominated(res.Final)
	sort.Slice(front, func(i, j int) bool { return front[i].Fitness[0] < front[j].Fitness[0] })
	fmt.Printf("ZDT1 Pareto front (%d points, true front is f2 = 1 − √f1):\n", len(front))
	var worst float64
	for _, ind := range front {
		gap := math.Abs(ind.Fitness[1] - (1 - math.Sqrt(ind.Fitness[0])))
		if gap > worst {
			worst = gap
		}
	}
	for i := 0; i < len(front); i += max(1, len(front)/10) {
		f := front[i].Fitness
		fmt.Printf("  f1=%.3f  f2=%.3f  (true %.3f)\n", f[0], f[1], 1-math.Sqrt(f[0]))
	}
	fmt.Printf("largest deviation from the analytic front: %.4f\n", worst)
}
