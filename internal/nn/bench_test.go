package nn

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkFittingNetForward measures the paper's fitting network
// ({240,240,240} on a 400-dim descriptor) forward pass.
func BenchmarkFittingNetForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := NewMLP(rng, 400, []int{240, 240, 240}, 1, Tanh)
	x := make([]float64, 400)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(x)
	}
}

func BenchmarkFittingNetBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	m := NewMLP(rng, 400, []int{240, 240, 240}, 1, Tanh)
	x := make([]float64, 400)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	_, tape := m.Forward(x)
	dy := []float64{1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Backward(tape, dy)
	}
}

// benchBatchSizes are the batch widths the scalar/batched pairs below
// compare; 16 matches deepmd's fitTile, 64 a typical neighbour count.
var benchBatchSizes = []int{16, 64}

// BenchmarkFittingNetForwardScalar evaluates n samples through the
// fitting network one ForwardT at a time — the pre-kernel hot path.
// Paired with BenchmarkFittingNetForwardBatch, same totals per op.
func BenchmarkFittingNetForwardScalar(b *testing.B) {
	for _, n := range benchBatchSizes {
		b.Run(benchName(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(4))
			m := NewMLP(rng, 400, []int{240, 240, 240}, 1, Tanh)
			x := make([]float64, n*400)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			tape := &Tape{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r := 0; r < n; r++ {
					m.ForwardT(tape, x[r*400:(r+1)*400])
				}
			}
		})
	}
}

// BenchmarkFittingNetForwardBatch evaluates the same n samples as one
// ForwardBatch call through the blas kernels.
func BenchmarkFittingNetForwardBatch(b *testing.B) {
	for _, n := range benchBatchSizes {
		b.Run(benchName(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(4))
			m := NewMLP(rng, 400, []int{240, 240, 240}, 1, Tanh)
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

// BenchmarkFittingNetBackwardScalar runs n scalar forward+backward pairs
// per op; its partner below runs one batched pair over the same rows.
func BenchmarkFittingNetBackwardScalar(b *testing.B) {
	for _, n := range benchBatchSizes {
		b.Run(benchName(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			m := NewMLP(rng, 400, []int{240, 240, 240}, 1, Tanh)
			x := make([]float64, n*400)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			tape := &Tape{}
			dy := []float64{1}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r := 0; r < n; r++ {
					m.ForwardT(tape, x[r*400:(r+1)*400])
					m.Backward(tape, dy)
				}
			}
		})
	}
}

func BenchmarkFittingNetBackwardBatch(b *testing.B) {
	for _, n := range benchBatchSizes {
		b.Run(benchName(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			m := NewMLP(rng, 400, []int{240, 240, 240}, 1, Tanh)
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
	m := NewMLP(rng, 400, []int{240, 240, 240}, 1, Tanh)
	param, grad := Pack(m.Layers)
	for i := range grad {
		grad[i] = rng.NormFloat64()
	}
	opt := NewAdam()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Step(param, grad, 1e-3)
	}
}
