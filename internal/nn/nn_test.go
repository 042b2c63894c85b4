package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestActivationValues(t *testing.T) {
	cases := []struct {
		act  Activation
		x    float64
		want float64
	}{
		{ReLU, -1, 0}, {ReLU, 2, 2},
		{ReLU6, 7, 6}, {ReLU6, 3, 3}, {ReLU6, -1, 0},
		{Sigmoid, 0, 0.5},
		{Tanh, 0, 0},
		{Softplus, 0, math.Log(2)},
		{Identity, -3.5, -3.5},
	}
	for _, c := range cases {
		if got := c.act.Apply(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s(%v) = %v, want %v", c.act.Name(), c.x, got, c.want)
		}
	}
}

func TestActivationDerivativesFiniteDiff(t *testing.T) {
	const h = 1e-6
	acts := []Activation{ReLU, ReLU6, Softplus, Sigmoid, Tanh, Identity}
	xs := []float64{-5, -2, -0.5, 0.3, 1.7, 5, 5.9, 7}
	for _, a := range acts {
		for _, x := range xs {
			// Skip kink points of piecewise-linear activations.
			if (a == ReLU || a == ReLU6) && (math.Abs(x) < 2*h || math.Abs(x-6) < 2*h) {
				continue
			}
			fd := (a.Apply(x+h) - a.Apply(x-h)) / (2 * h)
			if got := a.Deriv(x); math.Abs(got-fd) > 1e-5 {
				t.Errorf("%s'(%v) = %v, finite diff %v", a.Name(), x, got, fd)
			}
		}
	}
}

func TestSoftplusNumericalStability(t *testing.T) {
	if v := Softplus.Apply(1000); math.IsInf(v, 0) || math.Abs(v-1000) > 1e-9 {
		t.Errorf("Softplus(1000) = %v", v)
	}
	if v := Softplus.Apply(-1000); v != 0 && v > 1e-300 {
		// exp(-1000) underflows to 0; either is acceptable.
		t.Errorf("Softplus(-1000) = %v", v)
	}
	if v := Sigmoid.Apply(-1000); math.IsNaN(v) {
		t.Errorf("Sigmoid(-1000) = NaN")
	}
}

func TestActivationByName(t *testing.T) {
	for _, name := range ActivationNames {
		a, err := ActivationByName(name)
		if err != nil {
			t.Errorf("ActivationByName(%q): %v", name, err)
		}
		if a.Name() != name {
			t.Errorf("ActivationByName(%q).Name() = %q", name, a.Name())
		}
	}
	if _, err := ActivationByName("swish"); err == nil {
		t.Error("unknown activation accepted")
	}
}

// newMLP builds one net of the given shape the way a model's layer table
// does: fresh zeroed arenas, Glorot weights drawn into them.
func newMLP(rng *rand.Rand, in int, hidden []int, out int, act Activation) (m *MLP, param, grad []float64) {
	layers, param, grad := NewArena(MLPSpecs(in, hidden, out, act))
	Glorot(rng, layers)
	return &MLP{Layers: layers}, param, grad
}

func TestDenseForwardShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m, _, _ := newMLP(rng, 3, nil, 5, Tanh)
	d := m.Layers[0]
	bt := &BatchTrace{}
	out := d.ForwardBatch(bt, []float64{1, 2, 3, 4, 5, 6}, 2)
	if len(out) != 2*5 {
		t.Fatalf("output len %d, want 2×5", len(out))
	}
	if len(bt.preact) != 2*5 || len(bt.input) != 2*3 {
		t.Fatalf("trace holds %d pre-activations and %d inputs, want 10 and 6", len(bt.preact), len(bt.input))
	}
}

func TestDenseKnownValues(t *testing.T) {
	d := &Dense{In: 2, Out: 1, W: []float64{2, -1}, B: []float64{0.5}, Act: Identity,
		GradW: make([]float64, 2), GradB: make([]float64, 1)}
	out := d.ForwardBatch(&BatchTrace{}, []float64{3, 4, 1, 0}, 2)
	// 2*3 - 1*4 + 0.5 = 2.5; 2*1 - 1*0 + 0.5 = 2.5.
	for r, want := range []float64{2.5, 2.5} {
		if math.Abs(out[r]-want) > 1e-12 {
			t.Errorf("ForwardBatch row %d = %v, want %v", r, out[r], want)
		}
	}
}

// gradCheckMLP verifies every parameter gradient and every input gradient
// of a batched pass against central finite differences on the scalar
// loss L = sum(y²)/2 over a two-row batch.
func gradCheckMLP(t *testing.T, act Activation) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	m, param, grad := newMLP(rng, 4, []int{6, 5}, 2, act)
	const n = 2
	x := []float64{0.3, -0.7, 1.1, 0.2, -0.4, 0.9, 0.05, -1.3}

	tape := &BatchTape{}
	loss := func() float64 {
		y := m.ForwardBatch(tape, x, n)
		s := 0.0
		for _, v := range y {
			s += v * v
		}
		return s / 2
	}

	// Analytic gradients (a fresh arena's accumulators are zero).
	y := m.ForwardBatch(tape, x, n)
	dy := append([]float64(nil), y...) // dL/dy = y
	dx := append([]float64(nil), m.BackwardBatch(tape, dy, n)...)

	const h = 1e-6
	// Parameter gradients, weights and biases alike.
	for j := range param {
		orig := param[j]
		param[j] = orig + h
		lp := loss()
		param[j] = orig - h
		lm := loss()
		param[j] = orig
		fd := (lp - lm) / (2 * h)
		if math.Abs(fd-grad[j]) > 1e-4*(1+math.Abs(fd)) {
			t.Errorf("%s param[%d]: grad %v, finite diff %v", act.Name(), j, grad[j], fd)
		}
	}
	// Input gradients.
	for j := range x {
		orig := x[j]
		x[j] = orig + h
		lp := loss()
		x[j] = orig - h
		lm := loss()
		x[j] = orig
		fd := (lp - lm) / (2 * h)
		if math.Abs(fd-dx[j]) > 1e-4*(1+math.Abs(fd)) {
			t.Errorf("%s input grad[%d]: %v, finite diff %v", act.Name(), j, dx[j], fd)
		}
	}
}

func TestMLPGradientsTanh(t *testing.T)     { gradCheckMLP(t, Tanh) }
func TestMLPGradientsSigmoid(t *testing.T)  { gradCheckMLP(t, Sigmoid) }
func TestMLPGradientsSoftplus(t *testing.T) { gradCheckMLP(t, Softplus) }

func TestMLPInputGradMatchesBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m, _, grad := newMLP(rng, 3, []int{4}, 1, Tanh)
	x := []float64{0.1, 0.2, 0.3, -0.5, 0.7, 1.1}
	dy := []float64{1, -2}
	tape := &BatchTape{}
	m.ForwardBatch(tape, x, 2)
	dxB := append([]float64(nil), m.BackwardBatch(tape, dy, 2)...)
	m.ForwardBatch(tape, x, 2)
	dxI := m.InputGradBatch(tape, dy, 2)
	for i := range dxB {
		if dxB[i] != dxI[i] {
			t.Errorf("InputGradBatch[%d] = %v, BackwardBatch dx = %v", i, dxI[i], dxB[i])
		}
	}
	// InputGradBatch must not have touched parameter gradients.
	clear(grad)
	m.ForwardBatch(tape, x, 2)
	m.InputGradBatch(tape, dy, 2)
	for _, g := range grad {
		if g != 0 {
			t.Fatal("InputGradBatch accumulated parameter gradients")
		}
	}
}

func TestGradientsAccumulate(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m, _, grad := newMLP(rng, 2, nil, 1, Identity)
	x := []float64{1, 2}
	dy := []float64{1}
	tape := &BatchTape{}
	m.ForwardBatch(tape, x, 1)
	m.BackwardBatch(tape, dy, 1)
	g1 := append([]float64(nil), grad...)
	m.ForwardBatch(tape, x, 1)
	m.BackwardBatch(tape, dy, 1)
	for i := range g1 {
		if math.Abs(grad[i]-2*g1[i]) > 1e-12 {
			t.Errorf("gradient did not accumulate: %v vs 2*%v", grad[i], g1[i])
		}
	}
}

func TestAdamReducesQuadratic(t *testing.T) {
	w := []float64{-5}
	g := []float64{0}
	opt := NewAdam()
	for i := 0; i < 3000; i++ {
		g[0] = 2 * (w[0] - 3)
		opt.Step(w, g, 0.05)
	}
	if math.Abs(w[0]-3) > 1e-3 {
		t.Errorf("Adam converged to %v, want 3", w[0])
	}
}

func TestMLPTrainsXORWithAdam(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, param, grad := newMLP(rng, 2, []int{8}, 1, Tanh)
	opt := NewAdam()
	inputs := []float64{0, 0, 0, 1, 1, 0, 1, 1}
	targets := []float64{0, 1, 1, 0}
	tape := &BatchTape{}
	dy := make([]float64, len(targets))
	for epoch := 0; epoch < 2000; epoch++ {
		clear(grad)
		y := m.ForwardBatch(tape, inputs, len(targets))
		for k := range dy {
			dy[k] = y[k] - targets[k]
		}
		m.BackwardBatch(tape, dy, len(targets))
		opt.Step(param, grad, 0.01)
	}
	y := m.ForwardBatch(tape, inputs, len(targets))
	for k, want := range targets {
		if math.Abs(y[k]-want) > 0.2 {
			t.Errorf("XOR(%v) = %v, want %v", inputs[2*k:2*k+2], y[k], want)
		}
	}
}

func TestExpDecayScheduleEndpoints(t *testing.T) {
	s := ExpDecaySchedule{Start: 0.01, Stop: 1e-5, TotalSteps: 1000}
	if got := s.At(0); math.Abs(got-0.01) > 1e-15 {
		t.Errorf("At(0) = %v, want 0.01", got)
	}
	if got := s.At(1000); math.Abs(got-1e-5) > 1e-15 {
		t.Errorf("At(1000) = %v, want 1e-5", got)
	}
	if got := s.At(2000); math.Abs(got-1e-5) > 1e-15 {
		t.Errorf("At(2000) = %v, want clamp to 1e-5", got)
	}
	if got := s.At(-5); math.Abs(got-0.01) > 1e-15 {
		t.Errorf("At(-5) = %v, want clamp to 0.01", got)
	}
}

func TestExpDecayMonotone(t *testing.T) {
	s := ExpDecaySchedule{Start: 0.01, Stop: 1e-6, TotalSteps: 500}
	prev := math.Inf(1)
	for t_ := 0; t_ <= 500; t_ += 25 {
		lr := s.At(t_)
		if lr > prev {
			t.Fatalf("schedule not monotone at %d: %v > %v", t_, lr, prev)
		}
		prev = lr
	}
}

func TestQuickExpDecayWithinBounds(t *testing.T) {
	s := ExpDecaySchedule{Start: 0.01, Stop: 1e-6, TotalSteps: 777}
	f := func(step int) bool {
		lr := s.At(step)
		return lr <= s.Start+1e-18 && lr >= s.Stop-1e-18
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWorkerScale(t *testing.T) {
	cases := []struct {
		scheme string
		n      int
		want   float64
	}{
		{"linear", 6, 0.006},
		{"sqrt", 4, 0.002},
		{"none", 6, 0.001},
		{"bogus", 6, 0.001},
		{"linear", 1, 0.001},
	}
	for _, c := range cases {
		if got := WorkerScale(c.scheme, 0.001, c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("WorkerScale(%q, 0.001, %d) = %v, want %v", c.scheme, c.n, got, c.want)
		}
	}
}

func TestParamCount(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m, param, grad := newMLP(rng, 3, []int{5, 7}, 2, Tanh)
	want := (3*5 + 5) + (5*7 + 7) + (7*2 + 2)
	if got := m.ParamCount(); got != want {
		t.Errorf("ParamCount = %d, want %d", got, want)
	}
	if len(param) != want || len(grad) != want {
		t.Errorf("arenas hold %d and %d values, want %d", len(param), len(grad), want)
	}
}

func TestDensePanicsOnBadInput(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, _, _ := newMLP(rng, 3, nil, 2, Tanh)
	defer func() {
		if recover() == nil {
			t.Error("ForwardBatch with wrong input size did not panic")
		}
	}()
	m.Layers[0].ForwardBatch(&BatchTrace{}, []float64{1}, 1)
}
