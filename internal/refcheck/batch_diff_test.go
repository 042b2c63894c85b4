package refcheck

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/ea"
	"repro/internal/nn"
)

// refDense is the textbook one-row dense layer y = act(W·x + b): the
// reference the batched kernels are held to.  It copies its parameters
// from the layer under test and keeps its own gradient buffers and trace,
// so it shares no state with nn.Dense.
type refDense struct {
	in, out      int
	w, b         []float64
	act          nn.Activation
	gradW, gradB []float64
	x, pre, y    []float64 // trace of the last forward
}

func newRefDense(l *nn.Dense) *refDense {
	return &refDense{
		in: l.In, out: l.Out, act: l.Act,
		w: append([]float64(nil), l.W...), b: append([]float64(nil), l.B...),
		gradW: make([]float64, len(l.W)), gradB: make([]float64, len(l.B)),
		x: make([]float64, l.In), pre: make([]float64, l.Out), y: make([]float64, l.Out),
	}
}

// forward evaluates one row, summing each output's inputs in ascending
// order from the bias, and records the trace.
func (l *refDense) forward(x []float64) []float64 {
	copy(l.x, x)
	for o := 0; o < l.out; o++ {
		s := l.b[o]
		for i, xi := range x {
			s += l.w[o*l.in+i] * xi
		}
		l.pre[o] = s
		l.y[o] = l.act.Apply(s)
	}
	return l.y
}

// backward returns dL/dx for the recorded row, walking outputs outermost
// with the textbook derivative Deriv at the recorded pre-activation; with
// accumulate it also adds the row's parameter gradients.
func (l *refDense) backward(dy []float64, accumulate bool) []float64 {
	dx := make([]float64, l.in)
	for o := 0; o < l.out; o++ {
		g := dy[o] * l.act.Deriv(l.pre[o])
		if accumulate {
			l.gradB[o] += g
		}
		for i := 0; i < l.in; i++ {
			if accumulate {
				l.gradW[o*l.in+i] += g * l.x[i]
			}
			dx[i] += g * l.w[o*l.in+i]
		}
	}
	return dx
}

// refForward and refBackward run one row through a stack of reference
// layers.
func refForward(net []*refDense, x []float64) []float64 {
	for _, l := range net {
		x = l.forward(x)
	}
	return x
}

func refBackward(net []*refDense, dy []float64, accumulate bool) []float64 {
	for i := len(net) - 1; i >= 0; i-- {
		dy = net[i].backward(dy, accumulate)
	}
	return dy
}

// TestBatchedMLPMatchesScalarBitwise is the differential check behind the
// batched-kernel contract: for randomized network shapes and batch sizes
// — including N=0, N=1, and ragged last tiles — ForwardBatch,
// BackwardBatch, and InputGradBatch must be bit-identical to replaying
// the rows one at a time through the one-row reference (refDense),
// outputs and every accumulated parameter gradient alike.
func TestBatchedMLPMatchesScalarBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := []struct {
		n, in  int
		hidden []int
		out    int
		act    nn.Activation
	}{
		{0, 4, []int{6}, 2, nn.Tanh},
		{1, 1, nil, 1, nn.Tanh},
		{1, 5, []int{7, 3}, 2, nn.Sigmoid},
		{3, 8, []int{9}, 4, nn.ReLU6},
		{6, 9, []int{10}, 3, nn.ReLU},
		{4, 6, []int{5, 5}, 1, nn.Softplus},
		{5, 3, []int{4}, 3, nn.Tanh},   // ragged: one full tile + 1
		{7, 10, []int{12}, 6, nn.Tanh}, // ragged: one full tile + 3
		{16, 4, []int{8}, 2, nn.Sigmoid},
		{19, 7, []int{6, 6}, 5, nn.Tanh},
	}
	for _, tc := range cases {
		layers, _, grad := nn.NewArena(nn.MLPSpecs(tc.in, tc.hidden, tc.out, tc.act))
		nn.Glorot(rand.New(rand.NewSource(99)), layers)
		batched := &nn.MLP{Layers: layers}
		var ref []*refDense
		for _, l := range layers {
			ref = append(ref, newRefDense(l))
		}

		x := make([]float64, tc.n*tc.in)
		dy := make([]float64, tc.n*tc.out)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range dy {
			dy[i] = rng.NormFloat64()
		}

		btape := &nn.BatchTape{}
		gotOut := batched.ForwardBatch(btape, x, tc.n)
		gotDx := batched.BackwardBatch(btape, dy, tc.n)

		for r := 0; r < tc.n; r++ {
			wantOut := refForward(ref, x[r*tc.in:(r+1)*tc.in])
			for o, v := range wantOut {
				if gotOut[r*tc.out+o] != v {
					t.Fatalf("case %+v row %d: out[%d] = %v, want %v", tc, r, o, gotOut[r*tc.out+o], v)
				}
			}
			wantDx := refBackward(ref, dy[r*tc.out:(r+1)*tc.out], true)
			for i, v := range wantDx {
				if gotDx[r*tc.in+i] != v {
					t.Fatalf("case %+v row %d: dx[%d] = %v, want %v", tc, r, i, gotDx[r*tc.in+i], v)
				}
			}
		}

		// The gradient arena holds each layer's GradW, then its GradB.
		off := 0
		for li, l := range ref {
			for _, want := range [][]float64{l.gradW, l.gradB} {
				for j, v := range want {
					if grad[off+j] != v {
						t.Fatalf("case %+v: layer %d gradient %d = %v, want %v", tc, li, off+j, grad[off+j], v)
					}
				}
				off += len(want)
			}
		}

		// InputGradBatch: same dx, no gradient side effects.
		clear(grad)
		batched.ForwardBatch(btape, x, tc.n)
		gotDx = batched.InputGradBatch(btape, dy, tc.n)
		for r := 0; r < tc.n; r++ {
			refForward(ref, x[r*tc.in:(r+1)*tc.in])
			wantDx := refBackward(ref, dy[r*tc.out:(r+1)*tc.out], false)
			for i, v := range wantDx {
				if gotDx[r*tc.in+i] != v {
					t.Fatalf("case %+v row %d: inputgrad dx[%d] = %v, want %v", tc, r, i, gotDx[r*tc.in+i], v)
				}
			}
		}
		for j, g := range grad {
			if g != 0 {
				t.Fatalf("case %+v: InputGradBatch touched gradient %d = %v", tc, j, g)
			}
		}
	}
}

// TestGoldenCampaignMemoized reruns the golden campaign behind a
// MemoEvaluator and requires the identical frontier and hypervolume
// bytes: interposing the cache must not perturb a single bit of the
// campaign.  A campaign genome is then resubmitted to prove duplicates
// are served from the cache with the exact recorded fitness.
func TestGoldenCampaignMemoized(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	train, val := goldenDataset(t)
	memo := ea.NewMemoEvaluator(&GoldenEvaluator{Train: train, Val: val, Threads: 1})
	res, err := RunGoldenCampaign(context.Background(), memo, 2)
	if err != nil {
		t.Fatalf("golden campaign memoized: %v", err)
	}
	checkGolden(t, "frontier.txt", []byte(FormatFrontier(res.Final)))
	checkGolden(t, "hypervolume.txt", []byte(FormatHypervolume(res.Final)))
	st := memo.Stats()
	if st.Misses == 0 || st.Entries != st.Misses {
		t.Fatalf("memo stats insane: %+v", st)
	}

	// An exact-duplicate genome must hit the cache and return the bits the
	// campaign recorded, without re-training.
	ind := res.Final[0]
	fit, err := memo.Evaluate(context.Background(), ind.Genome)
	if err != nil {
		t.Fatalf("duplicate evaluation: %v", err)
	}
	for i := range fit {
		if fit[i] != ind.Fitness[i] {
			t.Fatalf("cached fitness %v != recorded %v", fit, ind.Fitness)
		}
	}
	if after := memo.Stats(); after.Hits != st.Hits+1 || after.Misses != st.Misses {
		t.Fatalf("duplicate did not hit the cache: before %+v, after %+v", st, after)
	}
}
