package descriptor

import (
	"math/rand"
	"testing"

	"repro/internal/nn"
)

// TestSteadyStateAllocs pins the pooled Forward/Backward/Release cycle —
// and the fused training sweep over a whole configuration — at zero
// allocations per call once the env pool and internal buffers are warm.
// A regression here means the convenience API started leaking Envs
// (Release lost) or an internal scratch stopped being recycled.
func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop items; pooled paths allocate by design")
	}
	rng := rand.New(rand.NewSource(9))
	d, _, _ := newDescriptor(t, rng, Config{
		RCut: 4.0, RCutSmth: 1.0,
		EmbeddingSizes: []int{4, 8},
		AxisNeurons:    2,
		Activation:     nn.Tanh,
		NumSpecies:     3,
		NeighborNorm:   6,
	})
	const n = 24
	box := 6.0
	coord, types := benchConfiguration(rng, n, box)
	dOut := make([]float64, d.Cfg.OutDim())
	for i := range dOut {
		dOut[i] = 1
	}
	dcoord := make([]float64, 3*n)

	var eb EnvBatch
	envs := make([]*Env, n)
	upstream := func(int) []float64 { return dOut }
	target := func(int) []float64 { return dcoord }
	fusedSweep := func() {
		for i := range envs {
			envs[i] = d.ScanEnv(envs[i], coord, types, box, i, nil)
		}
		d.ForwardEnvBatch(&eb, envs)
		d.BackwardEnvBatchGeometry(&eb, envs, upstream, target)
		d.BackwardEnvBatchParams(&eb, envs, upstream)
	}

	// Warm the pool and every size-dependent buffer: two sweeps over all
	// atoms cover the largest neighbourhood and every embedding batch.
	for sweep := 0; sweep < 2; sweep++ {
		for i := 0; i < n; i++ {
			env := d.Forward(coord, types, box, i)
			d.Backward(env, dOut, dcoord)
			d.Release(env)
		}
		fusedSweep()
	}

	atom := 0
	cases := []struct {
		name string
		fn   func()
	}{
		{"Forward+Release", func() {
			env := d.Forward(coord, types, box, atom%n)
			d.Release(env)
			atom++
		}},
		{"Forward+Backward+Release", func() {
			env := d.Forward(coord, types, box, atom%n)
			d.Backward(env, dOut, dcoord)
			d.Release(env)
			atom++
		}},
		{"ScanEnv+ForwardEnvBatch+BackwardEnvBatch{Geometry,Params}", fusedSweep},
	}
	for _, tc := range cases {
		if got := testing.AllocsPerRun(50, tc.fn); got != 0 {
			t.Errorf("%s: %v allocs/op in steady state, want 0", tc.name, got)
		}
	}
}

// TestBackwardEnvBatchGeometryMatchesBackward ties the training sweep's
// coordinate gradients to the inference path: one fused geometry backward
// over every atom must add, bit for bit, what per-atom ForwardEnv +
// Backward calls add in the same atom order, and touch no parameter
// accumulator.
func TestBackwardEnvBatchGeometryMatchesBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	cfg := Config{
		RCut: 4.0, RCutSmth: 1.0,
		EmbeddingSizes: []int{4, 8},
		AxisNeurons:    2,
		Activation:     nn.Tanh,
		NumSpecies:     3,
		NeighborNorm:   6,
	}
	d, _, grad := newDescriptor(t, rng, cfg)
	const n = 12
	box := 5.0
	coord, types := benchConfiguration(rng, n, box)
	dOut := make([][]float64, n)
	for i := range dOut {
		dOut[i] = make([]float64, cfg.OutDim())
		for k := range dOut[i] {
			dOut[i][k] = rng.NormFloat64()
		}
	}

	want := make([]float64, 3*n)
	for i := 0; i < n; i++ {
		env := d.Forward(coord, types, box, i)
		d.Backward(env, dOut[i], want)
		d.Release(env)
	}

	var eb EnvBatch
	envs := make([]*Env, n)
	for i := range envs {
		envs[i] = d.ScanEnv(nil, coord, types, box, i, nil)
	}
	d.ForwardEnvBatch(&eb, envs)
	got := make([]float64, 3*n)
	d.BackwardEnvBatchGeometry(&eb, envs,
		func(vi int) []float64 { return dOut[vi] },
		func(int) []float64 { return got })
	for k := range want {
		if want[k] != got[k] {
			t.Fatalf("dcoord[%d] = %v (fused) vs %v (per-atom Backward)", k, got[k], want[k])
		}
	}
	for _, g := range grad {
		if g != 0 {
			t.Fatal("BackwardEnvBatchGeometry accumulated parameter gradients")
		}
	}
}
