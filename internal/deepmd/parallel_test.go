package deepmd

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/neighbor"
)

// newTestModel builds two structurally identical models from the same
// seed so one can run serial and the other parallel.
func newTestModel(t *testing.T, seed int64) *Model {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m, err := NewModel(rng, tinyModelConfig())
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	return m
}

// TestEnergyForcesParallelBitIdentical checks the determinism contract:
// the same model evaluated with 1 thread and with 4 threads must produce
// bit-for-bit identical energies, forces and parameter gradients.  The
// container may have a single CPU; SetThreads forces the pool path
// regardless, which is exactly what we want to exercise.
func TestEnergyForcesParallelBitIdentical(t *testing.T) {
	m := newTestModel(t, 21)
	d := tinyData(t, 2)

	for _, fr := range d.Frames {
		m.SetThreads(1)
		e1, f1 := m.EnergyForces(fr.Coord, d.Types, fr.Box)
		m.ZeroGrad()
		m.AccumulateEnergyGrad(fr.Coord, d.Types, fr.Box, 1.25)
		g1 := append([]float64(nil), m.grad...)

		m.SetThreads(4)
		e4, f4 := m.EnergyForces(fr.Coord, d.Types, fr.Box)
		m.ZeroGrad()
		m.AccumulateEnergyGrad(fr.Coord, d.Types, fr.Box, 1.25)
		g4 := append([]float64(nil), m.grad...)

		if e1 != e4 {
			t.Fatalf("energy differs: serial %v, parallel %v", e1, e4)
		}
		for k := range f1 {
			if f1[k] != f4[k] {
				t.Fatalf("force[%d] differs: serial %v, parallel %v", k, f1[k], f4[k])
			}
		}
		for k := range g1 {
			if g1[k] != g4[k] {
				t.Fatalf("grad[%d] differs: serial %v, parallel %v", k, g1[k], g4[k])
			}
		}
	}
}

// TestEvalErrorsParallelBitIdentical does the same for the frame-parallel
// validation evaluation.
func TestEvalErrorsParallelBitIdentical(t *testing.T) {
	m := newTestModel(t, 22)
	d := tinyData(t, 6)

	m.SetThreads(1)
	e1, f1 := EvalErrors(m, d, 0)
	m.SetThreads(4)
	e4, f4 := EvalErrors(m, d, 0)
	if e1 != e4 || f1 != f4 {
		t.Fatalf("EvalErrors differ: serial (%v, %v), parallel (%v, %v)", e1, f1, e4, f4)
	}
}

// checkTrainThreadInvariant trains the same seed, batchSize frames per
// worker, at every combination of data-parallel width and thread count —
// one replica, fewer replicas than workers, an uneven split, more threads
// than workers — and requires the lcurve.out text and the final
// parameters to match Threads = 1 bit for bit.  Threads = 1 runs twice,
// so replay stability is covered too.
func checkTrainThreadInvariant(t *testing.T, batchSize int) {
	d := tinyData(t, 6)
	train, val := d.Split(0.33)

	for _, workers := range []int{1, 2, 6} {
		var wantOut string
		var wantParams []float64
		for _, threads := range []int{1, 1, 2, 3, 8} {
			m := newTestModel(t, 23)
			var buf bytes.Buffer
			cfg := streamTrainConfig()
			cfg.Workers, cfg.Threads, cfg.BatchSize = workers, threads, batchSize
			if _, err := Train(context.Background(), m, train, val, cfg, &buf); err != nil {
				t.Fatalf("Train(batch=%d, workers=%d, threads=%d): %v", batchSize, workers, threads, err)
			}
			params := m.param
			if wantParams == nil {
				wantOut, wantParams = buf.String(), params
				continue
			}
			if buf.String() != wantOut {
				t.Fatalf("batch=%d workers=%d: lcurve.out at Threads=%d differs from Threads=1:\n%s\nvs\n%s",
					batchSize, workers, threads, buf.String(), wantOut)
			}
			for k := range params {
				if math.Float64bits(params[k]) != math.Float64bits(wantParams[k]) {
					t.Fatalf("batch=%d workers=%d: final parameter %d at Threads=%d is %v, Threads=1 reached %v",
						batchSize, workers, k, threads, params[k], wantParams[k])
				}
			}
		}
	}
}

// TestTrainParallelBitIdentical is the acceptance criterion that
// parallelism — inside a gradient and across the data-parallel replicas —
// trades wall time only, never reproducibility of lcurve.out.  One frame
// per worker: every sweep is a single frame.
func TestTrainParallelBitIdentical(t *testing.T) { checkTrainThreadInvariant(t, 1) }

// TestTrainDeterministicAcrossThreads is TestTrainParallelBitIdentical
// with two frames per worker, so every network batch of a sweep spans
// frames and the per-worker gradient is rescaled by 1/BatchSize.
func TestTrainDeterministicAcrossThreads(t *testing.T) { checkTrainThreadInvariant(t, 2) }

// faultySource wraps a dataset with one frame whose read fails and one
// whose energy label is +Inf: the step that samples the latter leaves the
// parameters non-finite, so every worker of the next step diverges.
// Either fault is off at index -1.
type faultySource struct {
	*dataset.Dataset
	failAt, infAt int
}

func (s *faultySource) Frame(i int) (*dataset.Frame, error) {
	fr, err := s.Dataset.Frame(i)
	switch {
	case i == s.failAt:
		return nil, errFailingSource
	case i == s.infAt:
		poisoned := *fr
		poisoned.Energy = math.Inf(1)
		return &poisoned, nil
	}
	return fr, err
}

// TestTrainWorkerErrorDeterministic puts a failing read and a diverging
// label at every pair of frame indices — so that across the pairs the two
// failures hit different workers of one step in both orders — and requires
// the error, and the step it ended at, to be the same at every thread
// count: the lowest-numbered failing worker's, as in a serial loop.  No
// goroutine may outlive a failed training.
func TestTrainWorkerErrorDeterministic(t *testing.T) {
	d := tinyData(t, 8)
	cfg := TrainConfig{
		Steps: 4, BatchSize: 1, StartLR: 1e-3, StopLR: 1e-5,
		Workers: 6, DispFreq: 100, Seed: 9,
	}
	before := runtime.NumGoroutine()
	seen := map[error]int{}
	for failAt := -1; failAt < len(d.Frames); failAt++ {
		for infAt := -1; infAt < len(d.Frames); infAt++ {
			var wantErr error
			var wantSteps int
			for _, threads := range []int{1, 2, 3, 8} {
				cfg.Threads = threads
				src := &faultySource{Dataset: d, failAt: failAt, infAt: infAt}
				res, err := TrainSource(context.Background(), newTestModel(t, 23), src, d, cfg, nil)
				if threads == 1 {
					wantErr, wantSteps = err, res.StepsRun
					seen[err]++
					continue
				}
				if err != wantErr || res.StepsRun != wantSteps {
					t.Fatalf("failAt=%d infAt=%d Threads=%d: %v after %d steps; Threads=1 gave %v after %d",
						failAt, infAt, threads, err, res.StepsRun, wantErr, wantSteps)
				}
			}
		}
	}
	if seen[errFailingSource] == 0 || seen[ErrDiverged] == 0 || seen[nil] == 0 {
		t.Errorf("fault grid is vacuous: outcomes %v", seen)
	}
	// A replica that has run wg.Done() is joined but may not have exited
	// yet, and is still counted: give the count up to ~2 s to settle.
	for i := 0; i < 2000 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines outlived TrainSource", after-before)
	}
}

// cancelingSource cancels a context from inside its n-th Frame call and
// fails every read after that.
type cancelingSource struct {
	*dataset.Dataset
	cancel       context.CancelFunc
	cancelAt     int64
	calls, after atomic.Int64
}

func (s *cancelingSource) Frame(i int) (*dataset.Frame, error) {
	switch n := s.calls.Add(1); {
	case n == s.cancelAt:
		s.cancel()
	case n > s.cancelAt:
		s.after.Add(1)
		return nil, errFailingSource
	}
	return s.Dataset.Frame(i)
}

// TestTrainCancellationInsideStep: a context that ends while a worker's
// gradient is being computed stops the step before the next worker is
// started, and the training reports ctx.Err() — not the read failures
// the later workers would have hit (cancellation is not a failure).
func TestTrainCancellationInsideStep(t *testing.T) {
	d := tinyData(t, 8)
	for _, threads := range []int{1, 2, 3, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		// Step 0 reads six frames; the eighth read is inside step 1.
		src := &cancelingSource{Dataset: d, cancel: cancel, cancelAt: 8}
		cfg := TrainConfig{
			Steps: 5, BatchSize: 1, StartLR: 1e-3, StopLR: 1e-5,
			Workers: 6, DispFreq: 100, Seed: 9, Threads: threads,
		}
		res, err := TrainSource(ctx, newTestModel(t, 23), src, d, cfg, nil)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Threads=%d: TrainSource = %v, want context.Canceled", threads, err)
		}
		if res.StepsRun != 1 {
			t.Errorf("Threads=%d: %d steps completed, want 1", threads, res.StepsRun)
		}
		// A replica that passed its context check just before the cancel
		// may start one more worker; nobody starts a second.
		replicas := min(threads, cfg.Workers)
		if n := src.after.Load(); n > int64(replicas-1) {
			t.Errorf("Threads=%d: %d frames read after the cancel, want at most %d", threads, n, replicas-1)
		}
	}
}

// TestNeighborListSkinCoversFDDisplacement checks the training-loop skin
// contract directly: a list built at the frame coordinates with skin 4h
// must give bit-identical results at coordinates displaced by h along a
// unit direction — the exact evaluation pattern of accumulateFrameGrad.
func TestNeighborListSkinCoversFDDisplacement(t *testing.T) {
	m := newTestModel(t, 24)
	d := tinyData(t, 1)
	fr := &d.Frames[0]
	const h = 1e-4

	var nl neighbor.List
	nl.Build(fr.Coord, fr.Box, m.Cfg.Descriptor.RCut, 4*h)

	rng := rand.New(rand.NewSource(31))
	moved := make([]float64, len(fr.Coord))
	dir := make([]float64, len(fr.Coord))
	var norm float64
	for k := range dir {
		dir[k] = rng.NormFloat64()
		norm += dir[k] * dir[k]
	}
	norm = 1 / math.Sqrt(norm+1e-30)
	for k := range moved {
		moved[k] = fr.Coord[k] + h*dir[k]*norm
	}

	forces := make([]float64, len(fr.Coord))
	eNL := m.EnergyForcesNL(&nl, moved, d.Types, fr.Box, forces)
	eFresh, fFresh := m.EnergyForces(moved, d.Types, fr.Box)
	if eNL != eFresh {
		t.Fatalf("energy with stale-list differs: %v vs %v", eNL, eFresh)
	}
	for k := range forces {
		if forces[k] != fFresh[k] {
			t.Fatalf("force[%d] with stale-list differs: %v vs %v", k, forces[k], fFresh[k])
		}
	}
}
