package nsga2

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ea"
)

func randomPop(rng *rand.Rand, n, m int) ea.Population {
	pop := make(ea.Population, n)
	for i := range pop {
		f := make(ea.Fitness, m)
		for k := range f {
			f[k] = rng.Float64()
		}
		pop[i] = &ea.Individual{Fitness: f}
	}
	return pop
}

// BenchmarkSortAblation compares the naive Deb sort and the rank-ordinal
// sort (the paper's adopted speed-up, §2.1.4) across population sizes —
// the ablation behind choosing RankOrdinalSort as the production path.
func BenchmarkSortAblation(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	sorts := []struct {
		name string
		fn   sortFunc
	}{
		{"deb", FastNonDominatedSort},
		{"rank", RankOrdinalSort},
	}
	for _, n := range []int{100, 200, 1000, 4000} {
		pop := randomPop(rng, n, 2)
		for _, s := range sorts {
			b.Run(fmt.Sprintf("%s/n=%d", s.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					s.fn(pop)
				}
			})
		}
	}
}

func BenchmarkSortThreeObjectives(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	pop := randomPop(rng, 1000, 3)
	b.Run("deb", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			FastNonDominatedSort(pop)
		}
	})
	b.Run("rank", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			RankOrdinalSort(pop)
		}
	})
}

func BenchmarkCrowdingDistance(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	front := randomPop(rng, 1000, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CrowdingDistance(front)
	}
}

func BenchmarkSelect(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	pop := randomPop(rng, 200, 2) // parents+offspring at paper scale
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Select(pop, 100)
	}
}

func BenchmarkNonDominated(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	pop := randomPop(rng, 500, 2) // pooled last generations
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NonDominated(pop)
	}
}

// BenchmarkPopulationSizeSweep measures run cost across population sizes
// (the paper pinned population = node count; this shows the scaling).
func BenchmarkPopulationSizeSweep(b *testing.B) {
	p := zdt1(8)
	std := make([]float64, 8)
	for i := range std {
		std[i] = 0.2
	}
	for _, pop := range []int{25, 50, 100, 200} {
		b.Run(fmt.Sprintf("pop=%d", pop), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := Run(context.Background(), Config{
					PopSize: pop, Generations: 6, Bounds: p.Bounds,
					InitialStd: std, AnnealFactor: 0.85,
					Evaluator: p.Evaluator(), Seed: int64(i),
					Pool: ea.PoolConfig{Parallelism: 1, Objectives: 2},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
