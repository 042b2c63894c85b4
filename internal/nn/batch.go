package nn

import (
	"fmt"

	"repro/internal/nn/blas"
)

// BatchTrace holds the per-layer state of one batched forward pass over
// N rows.  All buffers are owned by the trace and reused across calls, so
// steady-state batched evaluation allocates nothing.
type BatchTrace struct {
	n      int
	input  []float64 // n×In copy of the layer input
	preact []float64 // n×Out pre-activations
	out    []float64 // n×Out activations
	dx     []float64 // n×In input gradients
	dg     []float64 // n×Out activation-scaled upstream gradients
}

// ForwardBatch computes the layer output for n row-major inputs (x is
// n×In) into the trace's reusable buffers and returns the n×Out output
// (owned by the trace).  Each row is arithmetically identical — bit for
// bit — to the textbook one-row loop (refcheck keeps it as the oracle):
// the kernel blocks over rows and output columns only, never over the k
// reduction (see package blas) — and the activation is then applied
// over the whole batch in one call.  TestSteadyStateAllocs holds it at 0
// allocs/op on a warm trace, for every activation.
func (d *Dense) ForwardBatch(bt *BatchTrace, x []float64, n int) []float64 {
	if len(x) != n*d.In {
		panic(fmt.Sprintf("nn: batch input %d, want %d×%d", len(x), n, d.In))
	}
	bt.n = n
	bt.input = ensureLen(bt.input, n*d.In)
	copy(bt.input, x)
	bt.preact = ensureLen(bt.preact, n*d.Out)
	bt.out = ensureLen(bt.out, n*d.Out)
	blas.GemmBias(bt.preact, bt.input, d.W, d.B, n, d.In, d.Out)
	d.Act.ApplyBatch(bt.out, bt.preact)
	return bt.out
}

// BackwardBatch accumulates parameter gradients for a recorded batch and
// returns the n×In input gradient (trace-owned).  The sample reduction
// into GradW/GradB runs in ascending row order, so the accumulated
// gradients are bit-identical to n one-row backward passes over the same
// rows in order.
func (d *Dense) BackwardBatch(bt *BatchTrace, dy []float64, n int) []float64 {
	bt.checkBatch(d, dy, n)
	d.scaleDeriv(bt, dy, n)
	bt.dx = ensureLen(bt.dx, n*d.In)
	blas.GemmNN(bt.dx, bt.dg, d.W, n, d.In, d.Out)
	blas.AccumGrad(d.GradW, d.GradB, bt.dg, bt.input, n, d.In, d.Out)
	return bt.dx
}

// InputGradBatch returns the n×In input gradient for a recorded batch
// without touching the parameter-gradient accumulators, as force
// inference needs.
func (d *Dense) InputGradBatch(bt *BatchTrace, dy []float64, n int) []float64 {
	bt.checkBatch(d, dy, n)
	d.scaleDeriv(bt, dy, n)
	bt.dx = ensureLen(bt.dx, n*d.In)
	blas.GemmNN(bt.dx, bt.dg, d.W, n, d.In, d.Out)
	return bt.dx
}

func (bt *BatchTrace) checkBatch(d *Dense, dy []float64, n int) {
	if n != bt.n {
		panic(fmt.Sprintf("nn: batch backward over %d rows, trace recorded %d", n, bt.n))
	}
	if len(dy) != n*d.Out {
		panic(fmt.Sprintf("nn: batch upstream grad %d, want %d×%d", len(dy), n, d.Out))
	}
}

// scaleDeriv fills bt.dg with dy scaled elementwise by the activation
// derivative at the recorded pre-activations (Activation.ScaleDeriv).
func (d *Dense) scaleDeriv(bt *BatchTrace, dy []float64, n int) {
	bt.dg = ensureLen(bt.dg, n*d.Out)
	d.Act.ScaleDeriv(bt.dg, dy, bt.preact[:n*d.Out], bt.out[:n*d.Out])
}

// BatchTape records the batch traces of one ForwardBatch pass through an
// MLP so the matching backward pass can be replayed.  A BatchTape is
// reusable across passes (and across networks of identical depth); reuse
// makes the batched forward/backward pair allocation-free in steady
// state.
type BatchTape struct {
	traces []*BatchTrace
}

// ForwardBatch runs the network on n row-major inputs (x is n×InDim),
// recording traces into tape.  The returned n×OutDim output is owned by
// the tape and overwritten by the next call.  TestSteadyStateAllocs holds
// it at 0 allocs/op on a warm tape, for every activation.
func (m *MLP) ForwardBatch(tape *BatchTape, x []float64, n int) []float64 {
	if len(tape.traces) != len(m.Layers) {
		tape.traces = make([]*BatchTrace, len(m.Layers))
		for i := range tape.traces {
			tape.traces[i] = &BatchTrace{}
		}
	}
	cur := x
	for i, l := range m.Layers {
		cur = l.ForwardBatch(tape.traces[i], cur, n)
	}
	return cur
}

// BackwardBatch accumulates parameter gradients for the recorded batch
// and returns the n×InDim gradient with respect to the network input.
// Rows reduce into the gradients in ascending order.
// TestSteadyStateAllocs holds it at 0 allocs/op on a warm tape, for every
// activation.
func (m *MLP) BackwardBatch(tape *BatchTape, dy []float64, n int) []float64 {
	cur := dy
	for i := len(m.Layers) - 1; i >= 0; i-- {
		cur = m.Layers[i].BackwardBatch(tape.traces[i], cur, n)
	}
	return cur
}

// InputGradBatch returns the n×InDim input gradient for the recorded
// batch without accumulating parameter gradients.  TestSteadyStateAllocs
// holds it at 0 allocs/op on a warm tape, for every activation.
func (m *MLP) InputGradBatch(tape *BatchTape, dy []float64, n int) []float64 {
	cur := dy
	for i := len(m.Layers) - 1; i >= 0; i-- {
		cur = m.Layers[i].InputGradBatch(tape.traces[i], cur, n)
	}
	return cur
}
