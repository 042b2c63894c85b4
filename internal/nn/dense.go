package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Dense is a fully connected layer y = act(W·x + b) with weights stored
// row-major: W[out][in] at index out*In + in.  W and B are windows of a
// model's parameter arena, GradW and GradB the same windows of its
// gradient arena (see NewArena).
type Dense struct {
	In, Out int
	W       []float64 // len In*Out
	B       []float64 // len Out
	Act     Activation

	// Gradient accumulators, same shapes as W and B.
	GradW []float64
	GradB []float64
}

// ensureLen returns buf resized to n, reusing its backing array when the
// capacity allows.
func ensureLen(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// ParamCount returns the number of trainable parameters.
func (d *Dense) ParamCount() int { return d.In*d.Out + d.Out }

// Spec declares one dense layer: a row of a model's layer table.
type Spec struct {
	In, Out int
	Act     Activation
}

// MLPSpecs returns the table rows of one feed-forward net: the hidden
// sizes sharing one activation, then a linear layer of outDim units.
// hidden may be empty.  This mirrors DeePMD's fitting network.
func MLPSpecs(inDim int, hidden []int, outDim int, act Activation) []Spec {
	rows := make([]Spec, 0, len(hidden)+1)
	prev := inDim
	for _, h := range hidden {
		rows = append(rows, Spec{In: prev, Out: h, Act: act})
		prev = h
	}
	return append(rows, Spec{In: prev, Out: outDim, Act: Identity})
}

// NewArena allocates a zeroed parameter arena and a zeroed gradient arena
// for table and returns one layer per row viewing them (Layers).  It is
// the only allocation of parameter storage: a model is its table over
// these two slices.
func NewArena(table []Spec) (layers []*Dense, param, grad []float64) {
	n := 0
	for _, s := range table {
		if s.In <= 0 || s.Out <= 0 {
			panic(fmt.Sprintf("nn: invalid dense shape %dx%d", s.In, s.Out))
		}
		n += s.In*s.Out + s.Out
	}
	param, grad = make([]float64, n), make([]float64, n)
	return Layers(table, param, grad), param, grad
}

// Layers returns one layer per table row, bound to consecutive windows of
// param and grad (Bind).  A data-parallel replica passes its model's
// parameter arena and a nil grad, then binds each worker's buffer.
func Layers(table []Spec, param, grad []float64) []*Dense {
	layers := make([]*Dense, len(table))
	for i, s := range table {
		layers[i] = &Dense{In: s.In, Out: s.Out, Act: s.Act}
	}
	Bind(layers, param, grad)
	return layers
}

// Glorot draws every layer's weights from the Glorot/Xavier-uniform
// distribution, the TensorFlow default DeePMD-kit inherits: layer by
// layer, each W in index order.  Biases are left as they are.
func Glorot(rng *rand.Rand, layers []*Dense) {
	for _, l := range layers {
		limit := math.Sqrt(6.0 / float64(l.In+l.Out))
		for i := range l.W {
			l.W[i] = (2*rng.Float64() - 1) * limit
		}
	}
}

// MLP is a feed-forward stack of dense layers.
type MLP struct {
	Layers []*Dense
}

// Split cuts layers into n nets of equal depth, in order: the table rows
// of n nets of one shape become n MLPs.
func Split(layers []*Dense, n int) []*MLP {
	depth := len(layers) / n
	nets := make([]*MLP, n)
	for i := range nets {
		nets[i] = &MLP{Layers: layers[i*depth : (i+1)*depth : (i+1)*depth]}
	}
	return nets
}

// ParamCount returns the total number of trainable parameters.
func (m *MLP) ParamCount() int {
	n := 0
	for _, l := range m.Layers {
		n += l.ParamCount()
	}
	return n
}

// Bind points the layers' W and B at consecutive windows of param, in
// table order (per layer W, then B), and GradW and GradB at the same
// windows of grad; a nil arena leaves that side as it is.  Every view is
// capacity-clipped, so an append to one reallocates instead of
// overwriting its neighbour.  Bind allocates nothing: a data-parallel
// replica rebinds its gradients onto each worker's buffer it computes,
// and deepmd's TestBatchGradSteadyStateAllocs holds that step at 0
// allocs/op.
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
