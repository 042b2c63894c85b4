package ddp

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/nn"
)

// adamUpdate applies an nn.Adam step to param from the mean gradient in
// grad, chunk by chunk, as deepmd.TrainSource does.
type adamUpdate struct {
	opt         *nn.Adam
	param, grad []float64
	lr          float64
	begun       int
}

func (u *adamUpdate) Begin()           { u.begun++; u.opt.Begin(len(u.param), u.lr) }
func (u *adamUpdate) Apply(lo, hi int) { u.opt.Update(u.param, u.grad, lo, hi) }

// fenceGrad is worker w's gradient element i at step s: varied in sign
// and magnitude, and the same bits whichever replica computes it.
func fenceGrad(s, w, i int) float64 {
	return math.Sin(float64(1+s*131+w*17+i*7)) * math.Exp(float64((i+w)%9-4))
}

func fenceParams(n int) []float64 {
	p := make([]float64, n)
	for i := range p {
		p[i] = math.Cos(float64(i)) * 0.3
	}
	return p
}

func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// fenceCompute is a Group.Step compute that leaves fenceGrad(s, w, ·) in
// worker w's buffer, and fails worker failW (−1: none).
func fenceCompute(s, failW int, boom error) func(r, w int, grad []float64) error {
	return func(r, w int, grad []float64) error {
		for i := range grad {
			grad[i] = fenceGrad(s, w, i)
		}
		if w == failW {
			return boom
		}
		return nil
	}
}

// wholeArenaStep is the reference for step s: ReduceMean over the
// workers' gradients into mean, then one whole-arena Adam step on param.
func wholeArenaStep(t *testing.T, opt *nn.Adam, param, mean []float64, s, workers int, lr float64) {
	t.Helper()
	buffers := make([][]float64, workers)
	for w := range buffers {
		buffers[w] = make([]float64, len(mean))
		for i := range buffers[w] {
			buffers[w][i] = fenceGrad(s, w, i)
		}
	}
	if err := ReduceMean(mean, buffers); err != nil {
		t.Fatal(err)
	}
	opt.Step(param, mean, lr)
}

// TestStepFusedAdamMatchesWholeArena: three consecutive Group.Steps that
// update each chunk as its mean is written leave the mean and the
// parameters bit-identical to ReduceMean followed by one whole-arena Adam
// step, for worker counts that do and do not divide the arena.
func TestStepFusedAdamMatchesWholeArena(t *testing.T) {
	lrs := []float64{0.004, 0.0031, 0.0017}
	for _, workers := range []int{1, 2, 3, 6, 7} {
		for _, n := range []int{1, 41, 103} {
			for _, replicas := range []int{1, workers} {
				g := NewGroup(workers, replicas, n)
				mean := make([]float64, n)
				up := &adamUpdate{opt: nn.NewAdam(), param: fenceParams(n), grad: mean}
				oracle, wantParam, wantMean := nn.NewAdam(), fenceParams(n), make([]float64, n)
				for s, lr := range lrs {
					up.lr = lr
					if err := g.Step(context.Background(), fenceCompute(s, -1, nil), mean, up); err != nil {
						t.Fatal(err)
					}
					wholeArenaStep(t, oracle, wantParam, wantMean, s, workers, lr)
					if i := sameBits(mean, wantMean); i >= 0 {
						t.Fatalf("workers=%d n=%d replicas=%d step %d: mean[%d] = %v, want %v", workers, n, replicas, s, i, mean[i], wantMean[i])
					}
					if i := sameBits(up.param, wantParam); i >= 0 {
						t.Fatalf("workers=%d n=%d replicas=%d step %d: param[%d] = %v, want %v", workers, n, replicas, s, i, up.param[i], wantParam[i])
					}
				}
				if up.begun != len(lrs) {
					t.Errorf("workers=%d n=%d: Begin ran %d times in %d steps", workers, n, up.begun, len(lrs))
				}
			}
		}
	}
}

// TestStepFailureLeavesOptimizerUntouched: a step whose worker fails, or
// whose context is cancelled, neither begins nor applies the update, so
// the parameters stay as they were, and the next successful step lands
// on the bits of a run that never saw the failed one — Adam's moments and
// step count did not move either.
func TestStepFailureLeavesOptimizerUntouched(t *testing.T) {
	const workers, n, lr = 3, 29, 0.01
	boom := errors.New("worker failed")
	for _, mode := range []string{"worker error", "cancelled"} {
		for _, replicas := range []int{1, workers} {
			g := NewGroup(workers, replicas, n)
			mean := make([]float64, n)
			up := &adamUpdate{opt: nn.NewAdam(), param: fenceParams(n), grad: mean, lr: lr}
			oracle, wantParam, wantMean := nn.NewAdam(), fenceParams(n), make([]float64, n)

			if err := g.Step(context.Background(), fenceCompute(0, -1, nil), mean, up); err != nil {
				t.Fatal(err)
			}
			wholeArenaStep(t, oracle, wantParam, wantMean, 0, workers, lr)
			before := append([]float64(nil), up.param...)
			ctx, cancel := context.WithCancel(context.Background())
			failW := 1
			if mode == "cancelled" {
				cancel()
				failW = -1
			}
			err := g.Step(ctx, fenceCompute(1, failW, boom), mean, up)
			cancel()
			if err == nil {
				t.Fatalf("%s, replicas=%d: the step succeeded", mode, replicas)
			}
			if i := sameBits(up.param, before); i >= 0 {
				t.Fatalf("%s, replicas=%d: param[%d] moved by a failed step", mode, replicas, i)
			}
			if up.begun != 1 {
				t.Fatalf("%s, replicas=%d: the failed step began the update", mode, replicas)
			}
			if err := g.Step(context.Background(), fenceCompute(2, -1, nil), mean, up); err != nil {
				t.Fatal(err)
			}
			wholeArenaStep(t, oracle, wantParam, wantMean, 2, workers, lr)
			if i := sameBits(up.param, wantParam); i >= 0 {
				t.Fatalf("%s, replicas=%d: after the failed step, param[%d] = %v, want %v", mode, replicas, i, up.param[i], wantParam[i])
			}
		}
	}
}
