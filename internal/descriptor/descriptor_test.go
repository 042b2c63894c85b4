package descriptor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/nn"
)

func TestSwitchRegions(t *testing.T) {
	s := SwitchFunc{RMin: 2, RMax: 6}
	if got := s.Eval(1.0); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("s(1) = %v, want 1 (1/r region)", got)
	}
	if got := s.Eval(6.0); got != 0 {
		t.Errorf("s(rcut) = %v, want 0", got)
	}
	if got := s.Eval(7.0); got != 0 {
		t.Errorf("s(beyond) = %v, want 0", got)
	}
	if got := s.Eval(0); got != 0 {
		t.Errorf("s(0) = %v, want clamp 0", got)
	}
	// Continuity at rmin: p(0)=1 so s(rmin) = 1/rmin.
	if got := s.Eval(2.0); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("s(rmin) = %v, want 0.5", got)
	}
}

func TestSwitchSmoothAtEnds(t *testing.T) {
	s := SwitchFunc{RMin: 2, RMax: 6}
	// Derivative continuity at rmin: left deriv = -1/r², right deriv from
	// polynomial with p'(0)=0 → also -1/r².
	_, dl := s.EvalDeriv(2 - 1e-9)
	_, dr := s.EvalDeriv(2 + 1e-9)
	if math.Abs(dl-dr) > 1e-6 {
		t.Errorf("ds/dr discontinuous at rmin: %v vs %v", dl, dr)
	}
	// At rcut both value and derivative vanish.
	v, d := s.EvalDeriv(6 - 1e-9)
	if math.Abs(v) > 1e-6 || math.Abs(d) > 1e-5 {
		t.Errorf("s, ds/dr at rcut⁻ = %v, %v; want ≈0, ≈0", v, d)
	}
}

func TestSwitchDerivativeFiniteDiff(t *testing.T) {
	s := SwitchFunc{RMin: 2, RMax: 6}
	const h = 1e-7
	for _, r := range []float64{0.5, 1.5, 2.5, 3.7, 5.0, 5.9} {
		vp := s.Eval(r + h)
		vm := s.Eval(r - h)
		fd := (vp - vm) / (2 * h)
		_, got := s.EvalDeriv(r)
		if math.Abs(got-fd) > 1e-5*(1+math.Abs(fd)) {
			t.Errorf("ds/dr(%v) = %v, finite diff %v", r, got, fd)
		}
	}
}

func TestSwitchMonotoneDecreasing(t *testing.T) {
	s := SwitchFunc{RMin: 2, RMax: 6}
	f := func(raw uint16) bool {
		r := 0.1 + float64(raw)/65535*6.5
		_, d := s.EvalDeriv(r)
		return d <= 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func testConfig() Config {
	return Config{
		RCut: 4.0, RCutSmth: 1.0,
		EmbeddingSizes: []int{6, 8},
		AxisNeurons:    3,
		Activation:     nn.Tanh,
		NumSpecies:     2,
		NeighborNorm:   4,
	}
}

// testConfiguration builds a small non-symmetric atom cluster.
func testConfiguration() (coord []float64, types []int, box float64) {
	coord = []float64{
		1.0, 1.0, 1.0,
		2.3, 1.1, 0.9,
		1.2, 2.9, 1.4,
		3.6, 3.3, 2.8,
		0.4, 0.5, 3.1,
	}
	types = []int{0, 1, 1, 0, 1}
	return coord, types, 8.0
}

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Errorf("Validate(good): %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.RCut = 0 },
		func(c *Config) { c.RCutSmth = 5 },
		func(c *Config) { c.EmbeddingSizes = nil },
		func(c *Config) { c.EmbeddingSizes = []int{0, 8} },
		func(c *Config) { c.AxisNeurons = 0 },
		func(c *Config) { c.AxisNeurons = 100 },
		func(c *Config) { c.NumSpecies = 0 },
	}
	for i, mut := range bad {
		c := testConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestDescriptorOutputShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d, _, _ := newDescriptor(t, rng, testConfig())
	coord, types, box := testConfiguration()
	env := d.Forward(coord, types, box, 0)
	if len(env.Out()) != d.Cfg.OutDim() {
		t.Errorf("descriptor dim %d, want %d", len(env.Out()), d.Cfg.OutDim())
	}
	if d.Cfg.OutDim() != 8*3 {
		t.Errorf("OutDim = %d, want 24", d.Cfg.OutDim())
	}
}

func TestDescriptorTranslationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d, _, _ := newDescriptor(t, rng, testConfig())
	coord, types, box := testConfiguration()
	env1 := d.Forward(coord, types, box, 0)

	shifted := make([]float64, len(coord))
	for i := range coord {
		shifted[i] = coord[i] + 0.37 // uniform shift, wrapped by min-image
	}
	env2 := d.Forward(shifted, types, box, 0)
	for k := range env1.Out() {
		if math.Abs(env1.Out()[k]-env2.Out()[k]) > 1e-10 {
			t.Fatalf("descriptor not translation invariant at %d: %v vs %v", k, env1.Out()[k], env2.Out()[k])
		}
	}
}

func TestDescriptorRotationInvariance(t *testing.T) {
	// The DeepPot-SE matrix D = T1ᵀT1 contracts the Cartesian axis away,
	// so rotating the whole configuration about the center atom must leave
	// D unchanged (no PBC for a clean rotation).
	rng := rand.New(rand.NewSource(3))
	d, _, _ := newDescriptor(t, rng, testConfig())
	coord, types, _ := testConfiguration()
	env1 := d.Forward(coord, types, 0, 0)

	// Rotate 90° about z around atom 0.
	cx, cy := coord[0], coord[1]
	rot := make([]float64, len(coord))
	copy(rot, coord)
	for i := 0; i < len(types); i++ {
		x, y := coord[3*i]-cx, coord[3*i+1]-cy
		rot[3*i] = cx - y
		rot[3*i+1] = cy + x
	}
	env2 := d.Forward(rot, types, 0, 0)
	for k := range env1.Out() {
		if math.Abs(env1.Out()[k]-env2.Out()[k]) > 1e-9 {
			t.Fatalf("descriptor not rotation invariant at %d: %v vs %v", k, env1.Out()[k], env2.Out()[k])
		}
	}
}

func TestDescriptorPermutationCovariance(t *testing.T) {
	// Swapping two same-type neighbours must not change the descriptor.
	rng := rand.New(rand.NewSource(4))
	d, _, _ := newDescriptor(t, rng, testConfig())
	coord, types, box := testConfiguration()
	env1 := d.Forward(coord, types, box, 0)

	swapped := make([]float64, len(coord))
	copy(swapped, coord)
	// Atoms 1 and 2 are both type 1: swap their coordinates.
	for k := 0; k < 3; k++ {
		swapped[3*1+k], swapped[3*2+k] = swapped[3*2+k], swapped[3*1+k]
	}
	env2 := d.Forward(swapped, types, box, 0)
	for k := range env1.Out() {
		if math.Abs(env1.Out()[k]-env2.Out()[k]) > 1e-10 {
			t.Fatalf("descriptor not permutation invariant at %d", k)
		}
	}
}

func TestDescriptorSmoothAtCutoff(t *testing.T) {
	// Moving a neighbour across the cutoff changes the descriptor
	// continuously (this is the whole point of rcut_smth).
	rng := rand.New(rand.NewSource(5))
	cfg := testConfig()
	d, _, _ := newDescriptor(t, rng, cfg)
	types := []int{0, 1}
	norm := func(r float64) float64 {
		coord := []float64{0, 0, 0, r, 0, 0}
		out := d.Forward(coord, types, 0, 0).Out()
		s := 0.0
		for _, v := range out {
			s += v * v
		}
		return math.Sqrt(s)
	}
	in := norm(cfg.RCut - 1e-6)
	outv := norm(cfg.RCut + 1e-6)
	if outv != 0 {
		t.Errorf("descriptor beyond cutoff = %v, want 0", outv)
	}
	if in > 1e-8 {
		t.Errorf("descriptor just inside cutoff = %v, want ≈0 (smooth vanish)", in)
	}
}

func TestDescriptorCoordinateGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d, _, _ := newDescriptor(t, rng, testConfig())
	coord, types, box := testConfiguration()

	// Scalar loss L = Σ_k w_k·D_k with fixed random weights.
	w := make([]float64, d.Cfg.OutDim())
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	loss := func(c []float64) float64 {
		env := d.Forward(c, types, box, 0)
		s := 0.0
		for k, v := range env.Out() {
			s += w[k] * v
		}
		return s
	}

	dcoord := make([]float64, len(coord))
	soloGeometry(d, &soloBatch{}, coord, types, box, 0, nil, w, dcoord)

	const h = 1e-6
	for idx := 0; idx < len(coord); idx++ {
		orig := coord[idx]
		coord[idx] = orig + h
		lp := loss(coord)
		coord[idx] = orig - h
		lm := loss(coord)
		coord[idx] = orig
		fd := (lp - lm) / (2 * h)
		if math.Abs(fd-dcoord[idx]) > 1e-4*(1+math.Abs(fd)) {
			t.Errorf("dL/dcoord[%d] = %v, finite diff %v", idx, dcoord[idx], fd)
		}
	}
}

// TestDescriptorParameterGradients checks the embedding-parameter
// gradients of the fused training sweep — every atom of the cluster in
// one EnvBatch — against finite differences of L = Σ_i w·D_i evaluated
// through the inference forward.
func TestDescriptorParameterGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d, param, grad := newDescriptor(t, rng, testConfig())
	coord, types, box := testConfiguration()
	w := make([]float64, d.Cfg.OutDim())
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	loss := func() float64 {
		s := 0.0
		for i := range types {
			env := d.Forward(coord, types, box, i)
			for k, v := range env.Out() {
				s += w[k] * v
			}
			d.Release(env)
		}
		return s
	}

	var eb EnvBatch
	envs := make([]*Env, len(types))
	for i := range envs {
		envs[i] = d.ScanEnv(nil, coord, types, box, i, nil)
	}
	d.ForwardEnvBatch(&eb, envs)
	d.BackwardEnvBatchParams(&eb, envs, func(int) []float64 { return w })

	const h = 1e-6
	for j := 0; j < len(param); j += 5 {
		orig := param[j]
		param[j] = orig + h
		lp := loss()
		param[j] = orig - h
		lm := loss()
		param[j] = orig
		fd := (lp - lm) / (2 * h)
		if math.Abs(fd-grad[j]) > 1e-4*(1+math.Abs(fd)) {
			t.Errorf("param[%d]: grad %v, finite diff %v", j, grad[j], fd)
		}
	}
}

// TestBackwardInferenceDoesNotTouchParams checks that the inference
// backward (forces), BackwardEnvBatchGeometry, leaves the parameter
// accumulators alone.
func TestBackwardInferenceDoesNotTouchParams(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d, _, grad := newDescriptor(t, rng, testConfig())
	coord, types, box := testConfiguration()
	dOut := make([]float64, d.Cfg.OutDim())
	for i := range dOut {
		dOut[i] = 1
	}
	dcoord := make([]float64, len(coord))
	soloGeometry(d, &soloBatch{}, coord, types, box, 0, nil, dOut, dcoord)
	for _, g := range grad {
		if g != 0 {
			t.Fatal("BackwardEnvBatchGeometry accumulated parameter gradients")
		}
	}
}

func TestIsolatedAtomZeroDescriptor(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d, _, _ := newDescriptor(t, rng, testConfig())
	coord := []float64{0, 0, 0, 100, 100, 100}
	types := []int{0, 1}
	env := d.Forward(coord, types, 0, 0)
	for k, v := range env.Out() {
		if v != 0 {
			t.Errorf("isolated atom descriptor[%d] = %v, want 0", k, v)
		}
	}
}

func TestParamCountPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	d, _, _ := newDescriptor(t, rng, testConfig())
	// 2 species × ((1×6+6) + (6×8+8)) = 2 × 68 = 136
	if got := d.ParamCount(); got != 136 {
		t.Errorf("ParamCount = %d, want 136", got)
	}
}

func TestPairTypeEmbeddingGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfg := testConfig()
	cfg.PairTypeEmbedding = true
	d, _, _ := newDescriptor(t, rng, cfg)
	if len(d.Embed) != cfg.NumSpecies*cfg.NumSpecies {
		t.Fatalf("pair embedding built %d nets, want %d", len(d.Embed), cfg.NumSpecies*cfg.NumSpecies)
	}
	coord, types, box := testConfiguration()
	w := make([]float64, d.Cfg.OutDim())
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	loss := func(c []float64) float64 {
		env := d.Forward(c, types, box, 0)
		s := 0.0
		for k, v := range env.Out() {
			s += w[k] * v
		}
		return s
	}
	dcoord := make([]float64, len(coord))
	soloGeometry(d, &soloBatch{}, coord, types, box, 0, nil, w, dcoord)
	const h = 1e-6
	for idx := 0; idx < len(coord); idx += 2 {
		orig := coord[idx]
		coord[idx] = orig + h
		lp := loss(coord)
		coord[idx] = orig - h
		lm := loss(coord)
		coord[idx] = orig
		fd := (lp - lm) / (2 * h)
		if math.Abs(fd-dcoord[idx]) > 1e-4*(1+math.Abs(fd)) {
			t.Errorf("pair-embedding dL/dcoord[%d] = %v, finite diff %v", idx, dcoord[idx], fd)
		}
	}
}

func TestPairTypeEmbeddingDiffersByCenter(t *testing.T) {
	// With pair embeddings, two centers of different species seeing the
	// same neighbour geometry get different descriptors; with shared
	// embeddings they would match.
	rng := rand.New(rand.NewSource(12))
	cfg := testConfig()
	cfg.PairTypeEmbedding = true
	d, _, _ := newDescriptor(t, rng, cfg)
	// Symmetric configuration: atoms 0 and 2 are different types, both at
	// distance 1.5 from atom 1 (type 1).
	coord := []float64{0, 0, 0, 1.5, 0, 0, 3.0, 0, 0}
	types := []int{0, 1, 0}
	// Atom 0 (type 0) and atom 2 (type 0) see identical environments.
	e0 := d.Forward(coord, types, 0, 0).Out()
	e2 := d.Forward(coord, types, 0, 2).Out()
	for k := range e0 {
		if math.Abs(e0[k]-e2[k]) > 1e-12 {
			t.Fatal("same-species centers with mirrored environments disagree")
		}
	}
	// A type-1 center with the same neighbour distance uses a different
	// pair net, so its descriptor differs from a type-0 center's.
	coordB := []float64{0, 0, 0, 1.5, 0, 0}
	eA := d.Forward(coordB, []int{0, 0}, 0, 0).Out()
	eB := d.Forward(coordB, []int{1, 0}, 0, 0).Out()
	same := true
	for k := range eA {
		if math.Abs(eA[k]-eB[k]) > 1e-12 {
			same = false
			break
		}
	}
	if same {
		t.Error("pair embedding gave identical descriptors for different center types")
	}
}

// soloGeometry runs atom i alone through ScanEnv, ForwardEnvBatch and
// BackwardEnvBatchGeometry — a fused batch of one environment, the
// per-atom reference — adding dL/dcoord for upstream dOut into dcoord.
// cand is ScanEnv's candidate list; b's Env is recycled.
func soloGeometry(d *Descriptor, b *soloBatch, coord []float64, types []int, box float64, i int, cand []int, dOut, dcoord []float64) {
	b.envs[0] = d.ScanEnv(b.envs[0], coord, types, box, i, cand)
	d.ForwardEnvBatch(&b.eb, b.envs[:])
	d.BackwardEnvBatchGeometry(&b.eb, b.envs[:],
		func(int) []float64 { return dOut },
		func(int) []float64 { return dcoord })
}

// newDescriptor builds a descriptor the way a model's layer table builds
// its embedding nets: fresh zeroed arenas, Glorot weights drawn into them.
// It returns the two arenas too.
func newDescriptor(tb testing.TB, rng *rand.Rand, cfg Config) (d *Descriptor, param, grad []float64) {
	tb.Helper()
	if err := cfg.Validate(); err != nil {
		tb.Fatal(err)
	}
	layers, param, grad := nn.NewArena(cfg.Layers())
	nn.Glorot(rng, layers)
	return New(cfg, layers), param, grad
}
