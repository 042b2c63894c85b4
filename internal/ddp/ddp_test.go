package ddp

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestAllReduceMeanSmall(t *testing.T) {
	buffers := [][]float64{
		{1, 2, 3},
		{3, 4, 5},
		{5, 6, 7},
	}
	if err := AllReduceMean(buffers); err != nil {
		t.Fatalf("AllReduceMean: %v", err)
	}
	want := []float64{3, 4, 5}
	for w, b := range buffers {
		for i := range want {
			if math.Abs(b[i]-want[i]) > 1e-12 {
				t.Errorf("worker %d buffer[%d] = %v, want %v", w, i, b[i], want[i])
			}
		}
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
			if err := AllReduceMean(buffers); err != nil {
				t.Fatalf("AllReduceMean(%d, %d): %v", workers, n, err)
			}
			for w := range buffers {
				for i := range mean {
					if math.Abs(buffers[w][i]-mean[i]) > 1e-9 {
						t.Fatalf("workers=%d n=%d: buffer[%d][%d] = %v, want %v",
							workers, n, w, i, buffers[w][i], mean[i])
					}
				}
			}
		}
	}
}

func TestAllReduceLengthMismatch(t *testing.T) {
	if err := AllReduceMean([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("mismatched buffers accepted")
	}
}

func TestAllReduceEmptyAndSingle(t *testing.T) {
	if err := AllReduceMean(nil); err != nil {
		t.Errorf("AllReduceMean(nil): %v", err)
	}
	b := [][]float64{{1, 2, 3}}
	if err := AllReduceMean(b); err != nil {
		t.Errorf("single worker: %v", err)
	}
	if b[0][1] != 2 {
		t.Error("single worker buffer modified")
	}
}

func TestShardIndicesPartition(t *testing.T) {
	total, workers := 17, 6
	seen := map[int]int{}
	for w := 0; w < workers; w++ {
		for _, i := range ShardIndices(total, workers, w) {
			seen[i]++
		}
	}
	if len(seen) != total {
		t.Errorf("shards cover %d of %d indices", len(seen), total)
	}
	for i, c := range seen {
		if c != 1 {
			t.Errorf("index %d covered %d times", i, c)
		}
	}
	// Balance: shard sizes differ by at most 1.
	min, max := total, 0
	for w := 0; w < workers; w++ {
		n := len(ShardIndices(total, workers, w))
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if max-min > 1 {
		t.Errorf("shard imbalance: %d vs %d", min, max)
	}
}

func TestShardIndicesEdgeCases(t *testing.T) {
	if ShardIndices(10, 0, 0) != nil {
		t.Error("0 workers should return nil")
	}
	if ShardIndices(10, 4, 4) != nil {
		t.Error("out-of-range worker should return nil")
	}
	if got := ShardIndices(2, 6, 5); got != nil {
		t.Errorf("worker beyond data should get empty shard, got %v", got)
	}
}

func TestGroupStepAverages(t *testing.T) {
	for _, replicas := range []int{1, 2, 4, 9} {
		g := NewGroup(4, replicas, 2)
		var result []float64
		err := g.Step(context.Background(),
			func(r, w int, grad []float64) error {
				grad[0], grad[1] = float64(w), 10*float64(w)
				return nil
			},
			func(mean []float64) { result = append([]float64(nil), mean...) },
		)
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		if math.Abs(result[0]-1.5) > 1e-12 || math.Abs(result[1]-15) > 1e-12 {
			t.Errorf("replicas=%d: mean = %v, want [1.5 15]", replicas, result)
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
		}, func([]float64) {})
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
// interleave, worker 2's error is returned and apply does not run.
func TestGroupStepReturnsLowestFailingWorker(t *testing.T) {
	err2, err4 := errors.New("worker 2"), errors.New("worker 4")
	for _, replicas := range []int{1, 2, 3, 6} {
		for trial := 0; trial < 50; trial++ {
			g := NewGroup(6, replicas, 1)
			err := g.Step(context.Background(), func(r, w int, grad []float64) error {
				switch w {
				case 2:
					runtime.Gosched() // let worker 4 fail first when it can
					return err2
				case 4:
					return err4
				}
				return nil
			}, func([]float64) { t.Error("apply ran after a failed worker") })
			if err != err2 {
				t.Fatalf("replicas=%d: Step = %v, want worker 2's error", replicas, err)
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
		err := g.Step(ctx, func(r, w int, grad []float64) error {
			started.Add(1)
			if w == 1 {
				cancel()
			}
			if w > 1 {
				return errors.New("a later worker's failure")
			}
			return nil
		}, func([]float64) { t.Error("apply ran after cancellation") })
		if !errors.Is(err, context.Canceled) {
			t.Errorf("replicas=%d: Step = %v, want context.Canceled", replicas, err)
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
	// Reducing identical buffers leaves them unchanged.
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
		if err := AllReduceMean(buffers); err != nil {
			return false
		}
		for w := range buffers {
			for i := range vals {
				if math.Abs(buffers[w][i]-vals[i]) > 1e-9*(1+math.Abs(vals[i])) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
