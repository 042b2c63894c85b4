package nn

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchBatchSizes are the batch widths of the fitting-network benchmarks;
// 16 matches deepmd's fitTile, 64 a typical neighbour count.
var benchBatchSizes = []int{16, 64}

// BenchmarkFittingNetForwardBatch evaluates n samples through the paper's
// fitting network ({240,240,240} on a 400-dim descriptor) as one
// ForwardBatch call through the blas kernels.
func BenchmarkFittingNetForwardBatch(b *testing.B) {
	for _, n := range benchBatchSizes {
		b.Run(benchName(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(4))
			m, _, _ := newMLP(rng, 400, []int{240, 240, 240}, 1, Tanh)
			x := make([]float64, n*400)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			tape := &BatchTape{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.ForwardBatch(tape, x, n)
			}
		})
	}
}

// BenchmarkFittingNetBackwardBatch runs one batched forward+backward pair
// over n rows of the paper's fitting network.
func BenchmarkFittingNetBackwardBatch(b *testing.B) {
	for _, n := range benchBatchSizes {
		b.Run(benchName(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			m, _, _ := newMLP(rng, 400, []int{240, 240, 240}, 1, Tanh)
			x := make([]float64, n*400)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			tape := &BatchTape{}
			dy := make([]float64, n)
			for i := range dy {
				dy[i] = 1
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.ForwardBatch(tape, x, n)
				m.BackwardBatch(tape, dy, n)
			}
		})
	}
}

func benchName(n int) string { return fmt.Sprintf("n=%d", n) }

// BenchmarkActivations compares the five tunable activations — the cost
// differences feed the surrogate's runtime model.
func BenchmarkActivations(b *testing.B) {
	for _, act := range []Activation{ReLU, ReLU6, Softplus, Sigmoid, Tanh} {
		b.Run(act.Name(), func(b *testing.B) {
			sink := 0.0
			for i := 0; i < b.N; i++ {
				x := float64(i%200)/20 - 5
				sink += act.Apply(x) + act.Deriv(x)
			}
			_ = sink
		})
	}
}

func BenchmarkAdamStep(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	_, param, grad := newMLP(rng, 400, []int{240, 240, 240}, 1, Tanh)
	for i := range grad {
		grad[i] = rng.NormFloat64()
	}
	opt := NewAdam()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Step(param, grad, 1e-3)
	}
}
