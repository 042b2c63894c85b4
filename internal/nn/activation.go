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
type Activation interface {
	// Name returns the DeePMD configuration name ("tanh", "relu", …).
	Name() string
	// Apply evaluates the function at x.
	Apply(x float64) float64
	// Deriv evaluates the derivative at x (pre-activation value).
	Deriv(x float64) float64
}

// OutputDeriver is implemented by activations whose derivative can be
// recovered from the activation output y = Apply(x) alone, with bits
// identical to Deriv(x): tanh' = 1−y², sigmoid' = y(1−y), and the
// piecewise-linear ramps, whose output determines the active piece.
// Backward passes use it to skip re-evaluating the transcendental the
// forward pass already computed.  Softplus does not implement it — its
// derivative sigmoid(x) is not recoverable from log1p(exp(x)) without a
// rounding difference.
type OutputDeriver interface {
	DerivFromOutput(y float64) float64
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
func (relu) Deriv(x float64) float64 {
	if x > 0 {
		return 1
	}
	return 0
}
func (relu) DerivFromOutput(y float64) float64 {
	// y = x when x > 0, else 0, so y > 0 iff x > 0.
	if y > 0 {
		return 1
	}
	return 0
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
func (relu6) Deriv(x float64) float64 {
	if x > 0 && x < 6 {
		return 1
	}
	return 0
}
func (relu6) DerivFromOutput(y float64) float64 {
	// y = x on the linear piece, saturating to 0 and 6 exactly.
	if y > 0 && y < 6 {
		return 1
	}
	return 0
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

type sigmoid struct{}

func (sigmoid) Name() string            { return "sigmoid" }
func (sigmoid) Apply(x float64) float64 { return sigmoidFn(x) }
func (sigmoid) Deriv(x float64) float64 {
	s := sigmoidFn(x)
	return s * (1 - s)
}
func (sigmoid) DerivFromOutput(y float64) float64 { return y * (1 - y) }

func sigmoidFn(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

type tanhAct struct{}

func (tanhAct) Name() string            { return "tanh" }
func (tanhAct) Apply(x float64) float64 { return math.Tanh(x) }
func (tanhAct) Deriv(x float64) float64 {
	t := math.Tanh(x)
	return 1 - t*t
}
func (tanhAct) DerivFromOutput(y float64) float64 { return 1 - y*y }

type identity struct{}

func (identity) Name() string                    { return "identity" }
func (identity) Apply(x float64) float64         { return x }
func (identity) Deriv(float64) float64           { return 1 }
func (identity) DerivFromOutput(float64) float64 { return 1 }
