// Package nn is a small, dependency-free neural-network library standing in
// for the TensorFlow substrate DeePMD-kit builds on (§2.1.2).  It provides
// dense layers, the five activation functions the paper's EA selects
// between (relu, relu6, softplus, sigmoid, tanh), manual backpropagation
// with input gradients (needed because atomic forces are the negative
// gradient of the predicted energy), the Adam optimizer, and the
// exponentially decaying learning-rate schedule DeePMD uses between
// start_lr and stop_lr.
package nn

import (
	"fmt"
	"math"
)

// Activation is a differentiable scalar nonlinearity applied elementwise.
// The batch methods let a dense layer make one interface call per layer
// call rather than one per element; each gives, element by element, the
// bits of its scalar counterpart.
type Activation interface {
	// Name returns the DeePMD configuration name ("tanh", "relu", …).
	Name() string
	// Apply evaluates the function at x.
	Apply(x float64) float64
	// Deriv evaluates the derivative at x (pre-activation value).
	Deriv(x float64) float64
	// ApplyBatch sets y[i] = Apply(x[i]) for every i of x.
	ApplyBatch(y, x []float64)
	// ScaleDeriv sets dg[i] = dy[i]·Deriv(pre[i]) for every i of dy,
	// where out[i] = Apply(pre[i]).  Tanh, sigmoid and the ramps read
	// the derivative off the output — tanh' = 1−y², sigmoid' = y(1−y),
	// and the ramps' output fixes the active piece — with the bits
	// Deriv gives, so the transcendental is not evaluated again;
	// softplus reads the pre-activation, since sigmoid(x) cannot be
	// recovered from log1p(exp(x)) without a rounding difference.  The
	// product is always taken, also where the derivative is 0 or 1: it
	// decides the sign of a zero and carries NaN and ±Inf.
	ScaleDeriv(dg, dy, pre, out []float64)
}

// The five activation choices the paper explores for the descriptor and
// fitting networks (§2.2.1).
var (
	ReLU     Activation = relu{}
	ReLU6    Activation = relu6{}
	Softplus Activation = softplus{}
	Sigmoid  Activation = sigmoid{}
	Tanh     Activation = tanhAct{}
	// Identity is used for linear output layers.
	Identity Activation = identity{}
)

// ActivationNames lists the tunable activations in the paper's decoding
// order: floor(gene) % 5 indexes into this slice (§2.2.2).
var ActivationNames = []string{"relu", "relu6", "softplus", "sigmoid", "tanh"}

// ActivationByName resolves a DeePMD activation name.
func ActivationByName(name string) (Activation, error) {
	switch name {
	case "relu":
		return ReLU, nil
	case "relu6":
		return ReLU6, nil
	case "softplus":
		return Softplus, nil
	case "sigmoid":
		return Sigmoid, nil
	case "tanh":
		return Tanh, nil
	case "identity", "linear", "none":
		return Identity, nil
	}
	return nil, fmt.Errorf("nn: unknown activation %q", name)
}

type relu struct{}

func (relu) Name() string { return "relu" }
func (relu) Apply(x float64) float64 {
	if x > 0 {
		return x
	}
	return 0
}

// reluDeriv is relu's derivative from its output: y > 0 iff x > 0.
func reluDeriv(y float64) float64 {
	if y > 0 {
		return 1
	}
	return 0
}
func (a relu) Deriv(x float64) float64 { return reluDeriv(a.Apply(x)) }
func (a relu) ApplyBatch(y, x []float64) {
	y = y[:len(x)]
	for i, v := range x {
		y[i] = a.Apply(v)
	}
}
func (relu) ScaleDeriv(dg, dy, _, out []float64) {
	dg, out = dg[:len(dy)], out[:len(dy)]
	for i, v := range dy {
		dg[i] = v * reluDeriv(out[i])
	}
}

type relu6 struct{}

func (relu6) Name() string { return "relu6" }
func (relu6) Apply(x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 6 {
		return 6
	}
	return x
}

// relu6Deriv is relu6's derivative from its output: y = x on the linear
// piece, saturating to 0 and 6 exactly.
func relu6Deriv(y float64) float64 {
	if y > 0 && y < 6 {
		return 1
	}
	return 0
}
func (a relu6) Deriv(x float64) float64 { return relu6Deriv(a.Apply(x)) }
func (a relu6) ApplyBatch(y, x []float64) {
	y = y[:len(x)]
	for i, v := range x {
		y[i] = a.Apply(v)
	}
}
func (relu6) ScaleDeriv(dg, dy, _, out []float64) {
	dg, out = dg[:len(dy)], out[:len(dy)]
	for i, v := range dy {
		dg[i] = v * relu6Deriv(out[i])
	}
}

type softplus struct{}

func (softplus) Name() string { return "softplus" }
func (softplus) Apply(x float64) float64 {
	// Numerically stable log(1+exp(x)).
	if x > 30 {
		return x
	}
	if x < -30 {
		return math.Exp(x)
	}
	return math.Log1p(math.Exp(x))
}
func (softplus) Deriv(x float64) float64 { return sigmoidFn(x) }
func (a softplus) ApplyBatch(y, x []float64) {
	y = y[:len(x)]
	for i, v := range x {
		y[i] = a.Apply(v)
	}
}
func (softplus) ScaleDeriv(dg, dy, pre, _ []float64) {
	dg, pre = dg[:len(dy)], pre[:len(dy)]
	for i, v := range dy {
		dg[i] = v * sigmoidFn(pre[i])
	}
}

type sigmoid struct{}

// sigmoidDeriv is the sigmoid's derivative from its output.
func sigmoidDeriv(y float64) float64 { return y * (1 - y) }

func (sigmoid) Name() string            { return "sigmoid" }
func (sigmoid) Apply(x float64) float64 { return sigmoidFn(x) }
func (sigmoid) Deriv(x float64) float64 { return sigmoidDeriv(sigmoidFn(x)) }
func (sigmoid) ApplyBatch(y, x []float64) {
	y = y[:len(x)]
	for i, v := range x {
		y[i] = sigmoidFn(v)
	}
}
func (sigmoid) ScaleDeriv(dg, dy, _, out []float64) {
	dg, out = dg[:len(dy)], out[:len(dy)]
	for i, v := range dy {
		dg[i] = v * sigmoidDeriv(out[i])
	}
}

func sigmoidFn(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

type tanhAct struct{}

// tanhDeriv is tanh's derivative from its output.
func tanhDeriv(y float64) float64 { return 1 - y*y }

func (tanhAct) Name() string            { return "tanh" }
func (tanhAct) Apply(x float64) float64 { return math.Tanh(x) }
func (tanhAct) Deriv(x float64) float64 { return tanhDeriv(math.Tanh(x)) }
func (tanhAct) ApplyBatch(y, x []float64) {
	y = y[:len(x)]
	for i, v := range x {
		y[i] = math.Tanh(v)
	}
}
func (tanhAct) ScaleDeriv(dg, dy, _, out []float64) {
	dg, out = dg[:len(dy)], out[:len(dy)]
	for i, v := range dy {
		dg[i] = v * tanhDeriv(out[i])
	}
}

type identity struct{}

func (identity) Name() string            { return "identity" }
func (identity) Apply(x float64) float64 { return x }
func (identity) Deriv(float64) float64   { return 1 }
func (identity) ApplyBatch(y, x []float64) {
	copy(y, x)
}
func (identity) ScaleDeriv(dg, dy, _, _ []float64) {
	dg = dg[:len(dy)]
	for i, v := range dy {
		dg[i] = v * 1
	}
}
