package descriptor

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/neighbor"
	"repro/internal/nn"
)

// benchConfiguration builds a periodic configuration of n atoms.
func benchConfiguration(rng *rand.Rand, n int, box float64) (coord []float64, types []int) {
	coord = make([]float64, 3*n)
	types = make([]int, n)
	for i := 0; i < n; i++ {
		for k := 0; k < 3; k++ {
			coord[3*i+k] = rng.Float64() * box
		}
		types[i] = i % 3
	}
	return coord, types
}

func paperScaleDescriptor(b *testing.B, rcut float64) *Descriptor {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	d, _, _ := newDescriptor(b, rng, Config{
		RCut: rcut, RCutSmth: 2.0,
		EmbeddingSizes: []int{25, 50, 100}, // the paper's embedding net
		AxisNeurons:    4,
		Activation:     nn.Tanh,
		NumSpecies:     3,
		NeighborNorm:   40,
	})
	return d
}

// BenchmarkForwardByRCut shows descriptor cost growing with the radial
// cutoff (more neighbours per atom) — the runtime-vs-rcut relationship
// the paper's implicit runtime optimization responds to.
func BenchmarkForwardByRCut(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	coord, types := benchConfiguration(rng, 160, 17.84)
	for _, rcut := range []float64{6, 8, 10, 12} {
		d := paperScaleDescriptor(b, rcut)
		b.Run(fmt.Sprintf("rcut=%v", rcut), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				env := d.Forward(coord, types, 17.84, i%160)
				d.Release(env)
			}
		})
	}
}

// BenchmarkForwardBackward is one atom's fused forward and geometry
// backward, an environment at a time.
func BenchmarkForwardBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	coord, types := benchConfiguration(rng, 160, 17.84)
	d := paperScaleDescriptor(b, 8.0)
	dOut := make([]float64, d.Cfg.OutDim())
	for i := range dOut {
		dOut[i] = 1
	}
	dcoord := make([]float64, len(coord))
	var solo soloBatch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		soloGeometry(d, &solo, coord, types, 17.84, i%160, nil, dOut, dcoord)
	}
}

// BenchmarkEnvBatchSweep is one fused training sweep over a 160-atom
// configuration — scan, one embedding forward per network, geometry and
// parameter backwards — as accumulateBatchGrad's base sweep drives it.
func BenchmarkEnvBatchSweep(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	coord, types := benchConfiguration(rng, 160, 17.84)
	d := paperScaleDescriptor(b, 8.0)
	dOut := make([]float64, d.Cfg.OutDim())
	for i := range dOut {
		dOut[i] = 1
	}
	dcoord := make([]float64, len(coord))
	upstream := func(int) []float64 { return dOut }
	var eb EnvBatch
	envs := make([]*Env, len(types))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := range envs {
			envs[c] = d.ScanEnv(envs[c], coord, types, 17.84, c, nil)
		}
		d.ForwardEnvBatch(&eb, envs)
		d.BackwardEnvBatchGeometry(&eb, envs, upstream, func(int) []float64 { return dcoord })
		d.BackwardEnvBatchParams(&eb, envs, upstream)
	}
}

// BenchmarkEnvReuse is the allocation-regression benchmark for one
// environment's forward and geometry backward with the model's
// neighbour source: one reusable Env, candidate lists from a cell list
// built once per configuration.  allocs/op should be zero in steady
// state.
func BenchmarkEnvReuse(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	coord, types := benchConfiguration(rng, 160, 17.84)
	d := paperScaleDescriptor(b, 6.0)
	var nl neighbor.List
	nl.Build(coord, 17.84, 6.0, 0)
	var solo soloBatch
	dOut := make([]float64, d.Cfg.OutDim())
	for i := range dOut {
		dOut[i] = 1
	}
	dcoord := make([]float64, len(coord))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := i % 160
		soloGeometry(d, &solo, coord, types, 17.84, c, nl.Candidates(c), dOut, dcoord)
	}
}

func BenchmarkSwitchFunc(b *testing.B) {
	s := SwitchFunc{RMin: 2, RMax: 8}
	b.ResetTimer()
	sink := 0.0
	for i := 0; i < b.N; i++ {
		v, d := s.EvalDeriv(2 + float64(i%600)/100)
		sink += v + d
	}
	_ = sink
}
