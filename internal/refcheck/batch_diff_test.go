package refcheck

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/ea"
	"repro/internal/nn"
)

// TestBatchedMLPMatchesScalarBitwise is the differential check behind the
// batched-kernel contract: for randomized network shapes and batch sizes
// — including N=0, N=1, and ragged last tiles — ForwardBatch,
// BackwardBatch, and InputGradBatch must be bit-identical to replaying
// the rows one at a time through the scalar Forward/Backward/InputGrad
// path, outputs and every accumulated parameter gradient alike.
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
		{4, 6, []int{5, 5}, 1, nn.Softplus},
		{5, 3, []int{4}, 3, nn.Tanh},   // ragged: one full tile + 1
		{7, 10, []int{12}, 6, nn.Tanh}, // ragged: one full tile + 3
		{16, 4, []int{8}, 2, nn.Sigmoid},
		{19, 7, []int{6, 6}, 5, nn.Tanh},
	}
	for _, tc := range cases {
		// Two models with identical parameters: one driven batched, one
		// scalar, so gradient accumulators can be compared afterwards.
		batched := nn.NewMLP(rand.New(rand.NewSource(99)), tc.in, tc.hidden, tc.out, tc.act)
		scalar := nn.NewMLP(rand.New(rand.NewSource(99)), tc.in, tc.hidden, tc.out, tc.act)

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

		stape := &nn.Tape{}
		for r := 0; r < tc.n; r++ {
			wantOut := scalar.ForwardT(stape, x[r*tc.in:(r+1)*tc.in])
			for o, v := range wantOut {
				if gotOut[r*tc.out+o] != v {
					t.Fatalf("case %+v row %d: out[%d] = %v, want %v", tc, r, o, gotOut[r*tc.out+o], v)
				}
			}
			wantDx := scalar.Backward(stape, dy[r*tc.out:(r+1)*tc.out])
			for i, v := range wantDx {
				if gotDx[r*tc.in+i] != v {
					t.Fatalf("case %+v row %d: dx[%d] = %v, want %v", tc, r, i, gotDx[r*tc.in+i], v)
				}
			}
		}

		bp, sp := nn.Params(batched.Layers), nn.Params(scalar.Layers)
		for p := range bp {
			for j := range bp[p].Grad {
				if bp[p].Grad[j] != sp[p].Grad[j] {
					t.Fatalf("case %+v: param %d grad[%d] = %v, want %v",
						tc, p, j, bp[p].Grad[j], sp[p].Grad[j])
				}
			}
		}

		// InputGradBatch: same dx, no gradient side effects.
		for _, pg := range bp {
			clear(pg.Grad)
		}
		batched.ForwardBatch(btape, x, tc.n)
		gotDx = batched.InputGradBatch(btape, dy, tc.n)
		for r := 0; r < tc.n; r++ {
			scalar.ForwardT(stape, x[r*tc.in:(r+1)*tc.in])
			wantDx := scalar.InputGrad(stape, dy[r*tc.out:(r+1)*tc.out])
			for i, v := range wantDx {
				if gotDx[r*tc.in+i] != v {
					t.Fatalf("case %+v row %d: inputgrad dx[%d] = %v, want %v", tc, r, i, gotDx[r*tc.in+i], v)
				}
			}
		}
		for p := range bp {
			for j := range bp[p].Grad {
				if bp[p].Grad[j] != 0 {
					t.Fatalf("case %+v: InputGradBatch touched param %d grad[%d] = %v", tc, p, j, bp[p].Grad[j])
				}
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
