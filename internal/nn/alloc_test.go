package nn

import (
	"math/rand"
	"testing"
)

// TestSteadyStateAllocs pins the batched hot paths to zero allocations
// per call once their reusable traces are warm.  A regression here
// usually means a buffer stopped being recycled (e.g. an ensureLen path
// lost) or an interface method value started escaping in the blas
// epilogue.
func TestSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, _, _ := newMLP(rng, 40, []int{24, 24}, 1, Tanh)
	const n = 8
	xb := make([]float64, n*40)
	for i := range xb {
		xb[i] = rng.NormFloat64()
	}
	dyb := make([]float64, n)
	for i := range dyb {
		dyb[i] = 1
	}

	d := m.Layers[0]
	btape := &BatchTape{}
	bt := &BatchTrace{}
	// Warm every buffer once outside the measured runs.
	m.ForwardBatch(btape, xb, n)
	m.BackwardBatch(btape, dyb, n)
	d.ForwardBatch(bt, xb, n)

	cases := []struct {
		name string
		fn   func()
	}{
		{"Dense.ForwardBatch", func() { d.ForwardBatch(bt, xb, n) }},
		{"MLP.ForwardBatch", func() { m.ForwardBatch(btape, xb, n) }},
		{"MLP.BackwardBatch", func() { m.ForwardBatch(btape, xb, n); m.BackwardBatch(btape, dyb, n) }},
		{"MLP.InputGradBatch", func() { m.ForwardBatch(btape, xb, n); m.InputGradBatch(btape, dyb, n) }},
	}
	for _, tc := range cases {
		if got := testing.AllocsPerRun(20, tc.fn); got != 0 {
			t.Errorf("%s: %v allocs/op in steady state, want 0", tc.name, got)
		}
	}
}
