package nn

import (
	"math/rand"
	"testing"
)

// TestSteadyStateAllocs pins the batched hot paths to zero allocations
// per call once their reusable traces are warm, for each of the paper's
// five activations and Identity.  A layer reaches its activation by
// dynamic dispatch (d.Act.ApplyBatch and ScaleDeriv, one call each per
// layer call), so each one needs its own row, and the two batch methods
// are also called on their own.  A regression here usually means a buffer
// stopped being recycled (e.g. an ensureLen path lost), a slice started
// escaping through the interface call, or an activation allocates.
func TestSteadyStateAllocs(t *testing.T) {
	for _, name := range append(append([]string(nil), ActivationNames...), "identity") {
		act, err := ActivationByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) { checkSteadyStateAllocs(t, act) })
	}
}

func checkSteadyStateAllocs(t *testing.T, act Activation) {
	rng := rand.New(rand.NewSource(7))
	m, _, _ := newMLP(rng, 40, []int{24, 24}, 1, act)
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

	pre, y, dg := make([]float64, n*24), make([]float64, n*24), make([]float64, n*24)
	copy(pre, xb)
	cases := []struct {
		name string
		fn   func()
	}{
		{"Activation.ApplyBatch", func() { act.ApplyBatch(y, pre) }},
		{"Activation.ScaleDeriv", func() { act.ScaleDeriv(dg, pre, pre, y) }},
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

// TestAdamSteadyStateAllocs pins the optimizer step, whole (Step) and as
// the data-parallel reduce runs it (Begin, then Update per chunk), at zero
// allocations once the moments exist.
func TestAdamSteadyStateAllocs(t *testing.T) {
	param, grad := make([]float64, 101), make([]float64, 101)
	for i := range grad {
		grad[i] = float64(i%7) - 3
	}
	opt := NewAdam()
	opt.Step(param, grad, 1e-3)
	if got := testing.AllocsPerRun(20, func() { opt.Step(param, grad, 1e-3) }); got != 0 {
		t.Errorf("Adam.Step: %v allocs/op in steady state, want 0", got)
	}
	chunked := func() {
		opt.Begin(len(param), 1e-3)
		opt.Update(param, grad, 0, 50)
		opt.Update(param, grad, 50, len(param))
	}
	if got := testing.AllocsPerRun(20, chunked); got != 0 {
		t.Errorf("Adam.Begin+Update: %v allocs/op in steady state, want 0", got)
	}
}
