package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Dense is a fully connected layer y = act(W·x + b) with weights stored
// row-major: W[out][in] at index out*In + in.  W, B and the gradient
// accumulators may be views into arenas a model owns (see Pack).
type Dense struct {
	In, Out int
	W       []float64 // len In*Out
	B       []float64 // len Out
	Act     Activation

	// Gradient accumulators, same shapes as W and B.
	GradW []float64
	GradB []float64
}

// NewDense creates a layer with Glorot/Xavier-uniform initialized weights,
// the TensorFlow default DeePMD-kit inherits.
func NewDense(rng *rand.Rand, in, out int, act Activation) *Dense {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: invalid dense shape %dx%d", in, out))
	}
	d := &Dense{
		In: in, Out: out, Act: act,
		W: make([]float64, in*out), B: make([]float64, out),
		GradW: make([]float64, in*out), GradB: make([]float64, out),
	}
	limit := math.Sqrt(6.0 / float64(in+out))
	for i := range d.W {
		d.W[i] = (2*rng.Float64() - 1) * limit
	}
	return d
}

// Trace holds per-sample state needed for backprop.  All buffers are
// owned by the trace and reused when the trace is replayed through
// ForwardInto/Backward, so a trace-reusing caller allocates nothing in
// steady state.
type Trace struct {
	input  []float64
	preact []float64
	out    []float64
	dx     []float64
}

// ensureLen returns buf resized to n, reusing its backing array when the
// capacity allows.
func ensureLen(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// forwardInto computes the layer output into the trace's reusable
// buffers and returns the output slice (owned by the trace).
func (d *Dense) forwardInto(tr *Trace, x []float64) []float64 {
	if len(x) != d.In {
		panic(fmt.Sprintf("nn: dense input %d, want %d", len(x), d.In))
	}
	tr.input = ensureLen(tr.input, d.In)
	copy(tr.input, x)
	tr.preact = ensureLen(tr.preact, d.Out)
	tr.out = ensureLen(tr.out, d.Out)
	for o := 0; o < d.Out; o++ {
		s := d.B[o]
		row := d.W[o*d.In : (o+1)*d.In]
		for i, xi := range x {
			s += row[i] * xi
		}
		tr.preact[o] = s
		tr.out[o] = d.Act.Apply(s)
	}
	return tr.out
}

// Forward computes the layer output for input x, returning the output and
// a trace for Backward.  The trace keeps Forward re-entrant so a single
// layer can serve many atoms in one configuration.  Forward allocates the
// trace; hot loops should hold one Trace and call ForwardInto instead.
func (d *Dense) Forward(x []float64) (out []float64, tr *Trace) {
	tr = &Trace{}
	return d.forwardInto(tr, x), tr
}

// ForwardInto is Forward with a caller-owned reusable trace: passing the
// same Trace back recycles its buffers, so repeated calls allocate
// nothing in steady state.  The returned output is trace-owned.
//
//lint:hot
func (d *Dense) ForwardInto(tr *Trace, x []float64) []float64 {
	return d.forwardInto(tr, x)
}

// Backward accumulates parameter gradients given the upstream gradient
// dL/dy and returns dL/dx.  The returned slice is owned by the trace and
// overwritten by the next Backward/InputGrad replay of the same trace.
// Clear the accumulators before a new minibatch.
func (d *Dense) Backward(tr *Trace, dy []float64) (dx []float64) {
	if len(dy) != d.Out {
		panic(fmt.Sprintf("nn: dense upstream grad %d, want %d", len(dy), d.Out))
	}
	tr.dx = ensureLen(tr.dx, d.In)
	dx = tr.dx
	for i := range dx {
		dx[i] = 0
	}
	od, hasOD := d.Act.(OutputDeriver)
	for o := 0; o < d.Out; o++ {
		var g float64
		if hasOD {
			g = dy[o] * od.DerivFromOutput(tr.out[o])
		} else {
			g = dy[o] * d.Act.Deriv(tr.preact[o])
		}
		d.GradB[o] += g
		row := d.W[o*d.In : (o+1)*d.In]
		grow := d.GradW[o*d.In : (o+1)*d.In]
		for i := 0; i < d.In; i++ {
			grow[i] += g * tr.input[i]
			dx[i] += g * row[i]
		}
	}
	return dx
}

// InputGrad returns dL/dx without touching the parameter-gradient
// accumulators; used for force evaluation at inference time where only the
// energy gradient with respect to coordinates is needed.  The returned
// slice is trace-owned scratch, like Backward's.
func (d *Dense) InputGrad(tr *Trace, dy []float64) (dx []float64) {
	tr.dx = ensureLen(tr.dx, d.In)
	dx = tr.dx
	for i := range dx {
		dx[i] = 0
	}
	od, hasOD := d.Act.(OutputDeriver)
	for o := 0; o < d.Out; o++ {
		var g float64
		if hasOD {
			g = dy[o] * od.DerivFromOutput(tr.out[o])
		} else {
			g = dy[o] * d.Act.Deriv(tr.preact[o])
		}
		row := d.W[o*d.In : (o+1)*d.In]
		for i := 0; i < d.In; i++ {
			dx[i] += g * row[i]
		}
	}
	return dx
}

// ShadowClone returns a layer sharing this layer's parameters (W and B
// alias the receiver's storage) with no gradient accumulators of its own:
// a data-parallel replica binds GradW and GradB to a worker's gradient
// buffer (Bind) before it accumulates.
func (d *Dense) ShadowClone() *Dense {
	return &Dense{In: d.In, Out: d.Out, Act: d.Act, W: d.W, B: d.B}
}

// ParamCount returns the number of trainable parameters.
func (d *Dense) ParamCount() int { return len(d.W) + len(d.B) }

// MLP is a feed-forward stack of dense layers.
type MLP struct {
	Layers []*Dense
}

// NewMLP builds a network with the given hidden sizes and activation,
// ending in a linear layer of outDim units.  hidden may be empty.  This
// mirrors DeePMD's fitting network: hidden layers share one activation and
// the output is linear.
func NewMLP(rng *rand.Rand, inDim int, hidden []int, outDim int, act Activation) *MLP {
	m := &MLP{}
	prev := inDim
	for _, h := range hidden {
		m.Layers = append(m.Layers, NewDense(rng, prev, h, act))
		prev = h
	}
	m.Layers = append(m.Layers, NewDense(rng, prev, outDim, Identity))
	return m
}

// ShadowClone returns an MLP whose layers share the receiver's parameters
// and own no gradient accumulators.  See Dense.ShadowClone.
func (m *MLP) ShadowClone() *MLP {
	s := &MLP{Layers: make([]*Dense, len(m.Layers))}
	for i, l := range m.Layers {
		s.Layers[i] = l.ShadowClone()
	}
	return s
}

// Tape records the traces of one forward pass so the matching backward
// pass can be replayed.  A Tape may be reused across forward passes (and
// across networks of identical layer shapes) via ForwardT; reuse makes
// the forward/backward pair allocation-free in steady state.
type Tape struct {
	traces []*Trace
}

// Forward runs the network on x and returns the output plus a fresh tape.
func (m *MLP) Forward(x []float64) ([]float64, *Tape) {
	tape := &Tape{}
	return m.ForwardT(tape, x), tape
}

// ForwardT runs the network on x, recording traces into tape.  The tape's
// buffers are reused when their shapes match, so repeated calls with the
// same tape do not allocate.  The returned output slice is owned by the
// tape and overwritten by the next ForwardT call.
//
//lint:hot
func (m *MLP) ForwardT(tape *Tape, x []float64) []float64 {
	if len(tape.traces) != len(m.Layers) {
		tape.traces = make([]*Trace, len(m.Layers))
		for i := range tape.traces {
			tape.traces[i] = &Trace{}
		}
	}
	cur := x
	for i, l := range m.Layers {
		cur = l.forwardInto(tape.traces[i], cur)
	}
	return cur
}

// Backward accumulates parameter gradients for the recorded pass and
// returns the gradient with respect to the network input.
//
//lint:hot
func (m *MLP) Backward(tape *Tape, dy []float64) []float64 {
	cur := dy
	for i := len(m.Layers) - 1; i >= 0; i-- {
		cur = m.Layers[i].Backward(tape.traces[i], cur)
	}
	return cur
}

// InputGrad returns dL/dx for the recorded pass without accumulating
// parameter gradients.
//
//lint:hot
func (m *MLP) InputGrad(tape *Tape, dy []float64) []float64 {
	cur := dy
	for i := len(m.Layers) - 1; i >= 0; i-- {
		cur = m.Layers[i].InputGrad(tape.traces[i], cur)
	}
	return cur
}

// ParamCount returns the total number of trainable parameters.
func (m *MLP) ParamCount() int {
	n := 0
	for _, l := range m.Layers {
		n += l.ParamCount()
	}
	return n
}

// ParamGrad pairs a parameter tensor with its gradient accumulator.  Both
// slices alias layer storage, so updates through them are visible in
// place.
type ParamGrad struct {
	Param []float64
	Grad  []float64
}

// Params lists the layers' tensors in arena order — per layer W, then B —
// each paired with its gradient.
func Params(layers []*Dense) []ParamGrad {
	out := make([]ParamGrad, 0, 2*len(layers))
	for _, l := range layers {
		out = append(out, ParamGrad{Param: l.W, Grad: l.GradW}, ParamGrad{Param: l.B, Grad: l.GradB})
	}
	return out
}

// Pack moves the layers' parameters into one new arena, in Params order,
// and gives them a second, zeroed arena of the same layout for their
// gradients; every W, B, GradW and GradB becomes a view into the two (see
// Bind).  The parameter values are unchanged.
func Pack(layers []*Dense) (param, grad []float64) {
	n := 0
	for _, l := range layers {
		n += l.ParamCount()
	}
	param, grad = make([]float64, n), make([]float64, n)
	off := 0
	for _, l := range layers {
		off += copy(param[off:], l.W)
		off += copy(param[off:], l.B)
	}
	Bind(layers, param, grad)
	return param, grad
}

// Bind points the layers' W and B at consecutive windows of param, in
// Params order, and GradW and GradB at the same windows of grad; a nil
// arena leaves that side as it is.  Every view is capacity-clipped, so an
// append to one reallocates instead of overwriting its neighbour.  Bind
// allocates nothing: a data-parallel replica rebinds its gradients onto
// each worker's buffer it computes.
//
//lint:hot
func Bind(layers []*Dense, param, grad []float64) {
	off := 0
	for _, l := range layers {
		w, b := off+l.In*l.Out, off+l.In*l.Out+l.Out
		if param != nil {
			l.W, l.B = param[off:w:w], param[w:b:b]
		}
		if grad != nil {
			l.GradW, l.GradB = grad[off:w:w], grad[w:b:b]
		}
		off = b
	}
}
