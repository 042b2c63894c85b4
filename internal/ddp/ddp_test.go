package ddp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// The TestAllReduce* tests keep their names from when the package ran a
// full allreduce; they check ReduceMean, its reduce half.

func TestAllReduceMeanSmall(t *testing.T) {
	buffers := [][]float64{
		{1, 2, 3},
		{3, 4, 5},
		{5, 6, 7},
	}
	dst := make([]float64, 3)
	if err := ReduceMean(dst, buffers); err != nil {
		t.Fatalf("ReduceMean: %v", err)
	}
	want := []float64{3, 4, 5}
	for i := range want {
		if math.Abs(dst[i]-want[i]) > 1e-12 {
			t.Errorf("mean[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
	if buffers[0][0] != 1 || buffers[2][2] != 7 {
		t.Errorf("ReduceMean modified its inputs: %v", buffers)
	}
}

func TestAllReduceMeanMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, workers := range []int{1, 2, 3, 6, 7} {
		for _, n := range []int{1, 5, 100, 1003} {
			buffers := make([][]float64, workers)
			mean := make([]float64, n)
			for w := range buffers {
				buffers[w] = make([]float64, n)
				for i := range buffers[w] {
					buffers[w][i] = rng.NormFloat64()
					mean[i] += buffers[w][i] / float64(workers)
				}
			}
			dst := make([]float64, n)
			if err := ReduceMean(dst, buffers); err != nil {
				t.Fatalf("ReduceMean(%d, %d): %v", workers, n, err)
			}
			for i := range mean {
				if math.Abs(dst[i]-mean[i]) > 1e-9 {
					t.Fatalf("workers=%d n=%d: mean[%d] = %v, want %v", workers, n, i, dst[i], mean[i])
				}
			}
		}
	}
}

// allReduceMeanOracle is the package's former AllReduceMean, kept as the
// oracle for ReduceMean's reduction order: reduce-scatter (worker k sums
// chunk k of every peer into its own buffer, ascending, then scales), then
// an allgather that leaves the mean in every buffer.
func allReduceMeanOracle(buffers [][]float64) error {
	if len(buffers) == 0 {
		return nil
	}
	n := len(buffers[0])
	for i, b := range buffers {
		if len(b) != n {
			return fmt.Errorf("ddp: buffer %d length %d != %d", i, len(b), n)
		}
	}
	w := len(buffers)
	if w == 1 {
		return nil
	}
	starts := make([]int, w+1)
	for k := 0; k <= w; k++ {
		starts[k] = k * n / w
	}
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			lo, hi := starts[k], starts[k+1]
			own := buffers[k]
			for p := 0; p < w; p++ {
				if p == k {
					continue
				}
				peer := buffers[p]
				for i := lo; i < hi; i++ {
					own[i] += peer[i]
				}
			}
			inv := 1 / float64(w)
			for i := lo; i < hi; i++ {
				own[i] *= inv
			}
		}(k)
	}
	wg.Wait()
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for owner := 0; owner < w; owner++ {
				if owner == k {
					continue
				}
				lo, hi := starts[owner], starts[owner+1]
				copy(buffers[k][lo:hi], buffers[owner][lo:hi])
			}
		}(k)
	}
	wg.Wait()
	return nil
}

// TestReduceMeanBitIdentical pins ReduceMean's per-element order to the
// former allreduce's, bit for bit: the inputs span 1e-16 to 1e16 with
// random signs, so any reassociation of a chunk's sum changes bits.
func TestReduceMeanBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, workers := range []int{1, 2, 3, 6, 7, 12} {
		for _, n := range []int{1, 5, 1003} {
			buffers := make([][]float64, workers)
			oracle := make([][]float64, workers)
			for w := range buffers {
				buffers[w] = make([]float64, n)
				for i := range buffers[w] {
					buffers[w][i] = (2*rng.Float64() - 1) * math.Pow(10, 32*rng.Float64()-16)
				}
				oracle[w] = append([]float64(nil), buffers[w]...)
			}
			dst := make([]float64, n)
			if err := ReduceMean(dst, buffers); err != nil {
				t.Fatal(err)
			}
			if err := allReduceMeanOracle(oracle); err != nil {
				t.Fatal(err)
			}
			for i := range dst {
				if math.Float64bits(dst[i]) != math.Float64bits(oracle[0][i]) {
					t.Fatalf("workers=%d n=%d: mean[%d] = %v (%#x), oracle %v (%#x)",
						workers, n, i, dst[i], math.Float64bits(dst[i]), oracle[0][i], math.Float64bits(oracle[0][i]))
				}
			}
		}
	}
}

func TestAllReduceLengthMismatch(t *testing.T) {
	if err := ReduceMean(make([]float64, 2), [][]float64{{1, 2}, {1}}); err == nil {
		t.Error("mismatched buffers accepted")
	}
	if err := ReduceMean(make([]float64, 1), [][]float64{{1, 2}, {3, 4}}); err == nil {
		t.Error("short destination accepted")
	}
}

func TestAllReduceEmptyAndSingle(t *testing.T) {
	if err := ReduceMean(nil, nil); err == nil {
		t.Error("ReduceMean of no buffers accepted")
	}
	b := [][]float64{{1, 2, 3}}
	dst := make([]float64, 3)
	if err := ReduceMean(dst, b); err != nil {
		t.Errorf("single worker: %v", err)
	}
	if !slices.Equal(dst, b[0]) || b[0][1] != 2 {
		t.Errorf("single worker: mean %v from %v", dst, b[0])
	}
}

func TestGroupStepAverages(t *testing.T) {
	for _, replicas := range []int{1, 2, 4, 9} {
		g := NewGroup(4, replicas, 2)
		mean := make([]float64, 2)
		err := g.Step(context.Background(),
			func(r, w int, grad []float64) error {
				grad[0], grad[1] = float64(w), 10*float64(w)
				return nil
			},
			mean, nil,
		)
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		if math.Abs(mean[0]-1.5) > 1e-12 || math.Abs(mean[1]-15) > 1e-12 {
			t.Errorf("replicas=%d: mean = %v, want [1.5 15]", replicas, mean)
		}
	}
}

func TestGroupMinWorkers(t *testing.T) {
	g := NewGroup(0, 0, 1)
	if g.NWorkers != 1 || g.Replicas != 1 {
		t.Errorf("NewGroup(0, 0) = %d workers on %d replicas, want 1 on 1", g.NWorkers, g.Replicas)
	}
	if g := NewGroup(3, 8, 1); g.Replicas != 3 {
		t.Errorf("NewGroup(3, 8).Replicas = %d, want 3 (never more replicas than workers)", g.Replicas)
	}
}

// TestGroupStepBoundsConcurrency checks that no more than Replicas
// computations are ever in flight, that each replica index is used by one
// computation at a time, and that one replica is a plain ascending loop.
func TestGroupStepBoundsConcurrency(t *testing.T) {
	for _, replicas := range []int{1, 2, 3} {
		g := NewGroup(12, replicas, 1)
		var inFlight, peak atomic.Int64
		busy := make([]atomic.Bool, replicas)
		var order []int
		err := g.Step(context.Background(), func(r, w int, grad []float64) error {
			if busy[r].Swap(true) {
				t.Errorf("replica %d computes two workers at once", r)
			}
			n := inFlight.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			if replicas == 1 {
				order = append(order, w)
			}
			runtime.Gosched()
			inFlight.Add(-1)
			busy[r].Store(false)
			return nil
		}, make([]float64, 1), nil)
		if err != nil {
			t.Fatal(err)
		}
		if peak.Load() > int64(replicas) {
			t.Errorf("replicas=%d: %d computations in flight", replicas, peak.Load())
		}
		if replicas == 1 && !slices.IsSorted(order) {
			t.Errorf("one replica visited workers out of order: %v", order)
		}
	}
}

// TestGroupStepReturnsLowestFailingWorker: workers 2 and 4 fail with
// different errors; whatever the replica count and however the replicas
// interleave, worker 2's error is returned and dst is not written.
func TestGroupStepReturnsLowestFailingWorker(t *testing.T) {
	err2, err4 := errors.New("worker 2"), errors.New("worker 4")
	for _, replicas := range []int{1, 2, 3, 6} {
		for trial := 0; trial < 50; trial++ {
			g := NewGroup(6, replicas, 1)
			dst := []float64{-1}
			err := g.Step(context.Background(), func(r, w int, grad []float64) error {
				grad[0] = 1
				switch w {
				case 2:
					runtime.Gosched() // let worker 4 fail first when it can
					return err2
				case 4:
					return err4
				}
				return nil
			}, dst, nil)
			if err != err2 {
				t.Fatalf("replicas=%d: Step = %v, want worker 2's error", replicas, err)
			}
			if dst[0] != -1 {
				t.Fatal("dst written after a failed worker")
			}
		}
	}
}

// TestGroupStepStopsOnCancel: once the context ends no further worker is
// started, and the step reports ctx.Err() — not a later worker's error.
func TestGroupStepStopsOnCancel(t *testing.T) {
	for _, replicas := range []int{1, 2, 3} {
		ctx, cancel := context.WithCancel(context.Background())
		g := NewGroup(6, replicas, 1)
		var started atomic.Int64
		dst := []float64{-1}
		err := g.Step(ctx, func(r, w int, grad []float64) error {
			grad[0] = 1
			started.Add(1)
			if w == 1 {
				cancel()
			}
			if w > 1 {
				return errors.New("a later worker's failure")
			}
			return nil
		}, dst, nil)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("replicas=%d: Step = %v, want context.Canceled", replicas, err)
		}
		if dst[0] != -1 {
			t.Errorf("replicas=%d: dst written after cancellation", replicas)
		}
		// Workers claimed before the cancel may still be running: at most
		// one per other replica beyond workers 0 and 1.
		if n := started.Load(); n > int64(2+replicas-1) {
			t.Errorf("replicas=%d: %d workers started after a cancel inside worker 1", replicas, n)
		}
		cancel()
	}
}

func TestQuickAllReduceIdempotentMean(t *testing.T) {
	// Reducing identical buffers gives them back.
	f := func(vals []float64) bool {
		for _, v := range vals {
			// Skip values whose 3-way sum overflows; the reduction sums
			// before dividing.
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > math.MaxFloat64/4 {
				return true
			}
		}
		buffers := make([][]float64, 3)
		for w := range buffers {
			buffers[w] = append([]float64(nil), vals...)
		}
		dst := make([]float64, len(vals))
		if err := ReduceMean(dst, buffers); err != nil {
			return false
		}
		for i := range vals {
			if math.Abs(dst[i]-vals[i]) > 1e-9*(1+math.Abs(vals[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
