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

func TestDenseForwardShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(rng, 3, 5, Tanh)
	out, tr := d.Forward([]float64{1, 2, 3})
	if len(out) != 5 {
		t.Fatalf("output dim %d, want 5", len(out))
	}
	if tr == nil || len(tr.preact) != 5 {
		t.Fatal("trace missing")
	}
}

func TestDenseKnownValues(t *testing.T) {
	d := &Dense{In: 2, Out: 1, W: []float64{2, -1}, B: []float64{0.5}, Act: Identity,
		GradW: make([]float64, 2), GradB: make([]float64, 1)}
	out, _ := d.Forward([]float64{3, 4})
	// 2*3 - 1*4 + 0.5 = 2.5
	if math.Abs(out[0]-2.5) > 1e-12 {
		t.Errorf("Forward = %v, want 2.5", out[0])
	}
}

// gradCheckMLP verifies parameter and input gradients of a network against
// central finite differences on a scalar loss L = sum(y²)/2.
func gradCheckMLP(t *testing.T, act Activation) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	m := NewMLP(rng, 4, []int{6, 5}, 2, act)
	x := []float64{0.3, -0.7, 1.1, 0.2}

	loss := func() float64 {
		y, _ := m.Forward(x)
		s := 0.0
		for _, v := range y {
			s += v * v
		}
		return s / 2
	}

	// Analytic gradients (a fresh network's accumulators are zero).
	y, tape := m.Forward(x)
	dy := make([]float64, len(y))
	copy(dy, y) // dL/dy = y
	dx := m.Backward(tape, dy)

	const h = 1e-6
	// Parameter gradients.
	for pi, pg := range Params(m.Layers) {
		for j := 0; j < len(pg.Param); j += 7 { // sample every 7th parameter
			orig := pg.Param[j]
			pg.Param[j] = orig + h
			lp := loss()
			pg.Param[j] = orig - h
			lm := loss()
			pg.Param[j] = orig
			fd := (lp - lm) / (2 * h)
			if math.Abs(fd-pg.Grad[j]) > 1e-4*(1+math.Abs(fd)) {
				t.Errorf("%s param %d[%d]: grad %v, finite diff %v", act.Name(), pi, j, pg.Grad[j], fd)
			}
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
	m := NewMLP(rng, 3, []int{4}, 1, Tanh)
	x := []float64{0.1, 0.2, 0.3}
	_, tape := m.Forward(x)
	dy := []float64{1}
	dxB := m.Backward(tape, dy)
	_, tape2 := m.Forward(x)
	dxI := m.InputGrad(tape2, dy)
	for i := range dxB {
		if math.Abs(dxB[i]-dxI[i]) > 1e-12 {
			t.Errorf("InputGrad[%d] = %v, Backward dx = %v", i, dxI[i], dxB[i])
		}
	}
	// InputGrad must not have touched parameter gradients.
	params := Params(m.Layers)
	for _, pg := range params {
		clear(pg.Grad)
	}
	_, tape3 := m.Forward(x)
	m.InputGrad(tape3, dy)
	for _, pg := range params {
		for _, g := range pg.Grad {
			if g != 0 {
				t.Fatal("InputGrad accumulated parameter gradients")
			}
		}
	}
}

func TestGradientsAccumulate(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := NewMLP(rng, 2, nil, 1, Identity)
	x := []float64{1, 2}
	dy := []float64{1}
	_, tape := m.Forward(x)
	m.Backward(tape, dy)
	g1 := append([]float64(nil), m.Layers[0].GradW...)
	_, tape = m.Forward(x)
	m.Backward(tape, dy)
	for i := range g1 {
		if math.Abs(m.Layers[0].GradW[i]-2*g1[i]) > 1e-12 {
			t.Errorf("gradient did not accumulate: %v vs 2*%v", m.Layers[0].GradW[i], g1[i])
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
	m := NewMLP(rng, 2, []int{8}, 1, Tanh)
	param, grad := Pack(m.Layers)
	opt := NewAdam()
	inputs := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	targets := []float64{0, 1, 1, 0}
	for epoch := 0; epoch < 2000; epoch++ {
		clear(grad)
		for k, x := range inputs {
			y, tape := m.Forward(x)
			m.Backward(tape, []float64{y[0] - targets[k]})
		}
		opt.Step(param, grad, 0.01)
	}
	for k, x := range inputs {
		y, _ := m.Forward(x)
		if math.Abs(y[0]-targets[k]) > 0.2 {
			t.Errorf("XOR(%v) = %v, want %v", x, y[0], targets[k])
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
	m := NewMLP(rng, 3, []int{5, 7}, 2, Tanh)
	want := (3*5 + 5) + (5*7 + 7) + (7*2 + 2)
	if got := m.ParamCount(); got != want {
		t.Errorf("ParamCount = %d, want %d", got, want)
	}
}

func TestDensePanicsOnBadInput(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := NewDense(rng, 3, 2, Tanh)
	defer func() {
		if recover() == nil {
			t.Error("Forward with wrong input size did not panic")
		}
	}()
	d.Forward([]float64{1})
}
