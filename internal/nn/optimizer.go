package nn

import "math"

// Adam is the Adam optimizer (Kingma & Ba, 2015), the default DeePMD-kit
// trainer.  A step is Begin, then Update over element ranges that cover
// the parameters once; Step does both over the whole slice.
type Adam struct {
	Beta1, Beta2, Eps float64
	t                 int
	m, v              []float64
	lr, c1, c2        float64 // the step Begin started
}

// NewAdam creates an Adam optimizer with the standard hyperparameters.
func NewAdam() *Adam { return &Adam{Beta1: 0.9, Beta2: 0.999, Eps: 1e-8} }

// Step applies one update with learning rate lr to param from its
// gradient grad — a model's two arenas (see NewArena).  Every call must pass
// slices of the length the first one did.
func (a *Adam) Step(param, grad []float64, lr float64) {
	a.Begin(len(param), lr)
	a.Update(param, grad, 0, len(param))
}

// Begin starts the next step over n parameters with learning rate lr: it
// advances the step count and computes the bias corrections, once.  Every
// call must pass the n the first one did.
func (a *Adam) Begin(n int, lr float64) {
	if a.m == nil {
		a.m = make([]float64, n)
		a.v = make([]float64, n)
	}
	a.t++
	a.lr = lr
	a.c1 = 1 - math.Pow(a.Beta1, float64(a.t))
	a.c2 = 1 - math.Pow(a.Beta2, float64(a.t))
}

// Update applies the step Begin started to param[lo:hi] from grad[lo:hi].
// Element j reads and writes only param[j] and its own moments, so calls
// on disjoint ranges may run concurrently.
func (a *Adam) Update(param, grad []float64, lo, hi int) {
	c1, c2, lr := a.c1, a.c2, a.lr
	grad = grad[lo:hi]
	param, m, v := param[lo:hi][:len(grad)], a.m[lo:hi][:len(grad)], a.v[lo:hi][:len(grad)]
	for j, g := range grad {
		m[j] = a.Beta1*m[j] + (1-a.Beta1)*g
		v[j] = a.Beta2*v[j] + (1-a.Beta2)*g*g
		mh := m[j] / c1
		vh := v[j] / c2
		param[j] -= lr * mh / (math.Sqrt(vh) + a.Eps)
	}
}

// ExpDecaySchedule is DeePMD's exponentially decaying learning rate: the
// rate starts at Start and reaches Stop after TotalSteps, decaying as
// lr(t) = Start · (Stop/Start)^(t/TotalSteps).  The loss prefactors in the
// DeePMD loss are functions of lr(t)/Start (see deepmd.Loss).
type ExpDecaySchedule struct {
	Start, Stop float64
	TotalSteps  int
}

// At returns the learning rate at step t (clamped to [0, TotalSteps]).
func (s ExpDecaySchedule) At(t int) float64 {
	if s.TotalSteps <= 0 {
		return s.Start
	}
	if t < 0 {
		t = 0
	}
	if t > s.TotalSteps {
		t = s.TotalSteps
	}
	frac := float64(t) / float64(s.TotalSteps)
	return s.Start * math.Pow(s.Stop/s.Start, frac)
}

// WorkerScale scales a base learning rate for distributed data-parallel
// training with n workers using the named scheme: "linear" multiplies by
// n (the DeePMD default), "sqrt" by √n, and "none" leaves it unchanged
// (§2.2.1).  Unknown schemes fall back to "none".
func WorkerScale(scheme string, lr float64, n int) float64 {
	if n <= 1 {
		return lr
	}
	switch scheme {
	case "linear":
		return lr * float64(n)
	case "sqrt":
		return lr * math.Sqrt(float64(n))
	default:
		return lr
	}
}

// ScaleSchemes lists the worker-scaling options in the paper's decoding
// order: floor(gene) % 3 indexes into this slice (§2.2.2).
var ScaleSchemes = []string{"linear", "sqrt", "none"}
