// Package ddp simulates Horovod-style distributed data-parallel training
// (§2.1.2): several workers each compute gradients on their own shard of a
// minibatch, the gradients are combined with a ring allreduce, and every
// worker applies the same averaged update.  The paper's scale_by_worker
// gene controls how the learning rate is scaled by the worker count in
// this regime; nn.WorkerScale implements the schemes.
package ddp

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// AllReduceMean averages the gradient buffers of all workers in place:
// after the call every buffer holds the elementwise mean.  The reduction
// is organized as a ring — each worker owns a contiguous chunk, reduces it
// across peers, then broadcasts — matching how Horovod moves data, though
// here peers are goroutines rather than GPUs.
func AllReduceMean(buffers [][]float64) error {
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

	// Chunk boundaries: worker k owns [starts[k], starts[k+1]).
	starts := make([]int, w+1)
	for k := 0; k <= w; k++ {
		starts[k] = k * n / w
	}

	var wg sync.WaitGroup
	// Reduce-scatter: worker k sums chunk k from all peers into its own
	// buffer.
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

	// Allgather: every worker copies each owner's reduced chunk.
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

// ShardIndices partitions frame indices [0, total) round-robin across
// nWorkers, returning worker w's shard.  Round-robin keeps shards balanced
// for any total.
func ShardIndices(total, nWorkers, w int) []int {
	if nWorkers <= 0 || w < 0 || w >= nWorkers {
		return nil
	}
	var out []int
	for i := w; i < total; i += nWorkers {
		out = append(out, i)
	}
	return out
}

// Group runs the data-parallel step "workers compute → allreduce →
// apply": NWorkers gradient computations per step, at most Replicas of
// them at once.  This mirrors the paper's 6-GPU-per-node Horovod layout,
// where each GPU holds a replica of the model and trains on its own
// batch.
type Group struct {
	NWorkers, Replicas int
	flat               [][]float64 // flat[w] is worker w's gradient
	errs               []error
}

// NewGroup creates a group of nWorkers workers (at least 1), each owning
// a gradient buffer of nParams entries, computed on replicas concurrent
// replicas (clamped to [1, nWorkers]).
func NewGroup(nWorkers, replicas, nParams int) *Group {
	nWorkers = max(nWorkers, 1)
	g := &Group{
		NWorkers: nWorkers, Replicas: min(max(replicas, 1), nWorkers),
		flat: make([][]float64, nWorkers), errs: make([]error, nWorkers),
	}
	for w := range g.flat {
		g.flat[w] = make([]float64, nParams)
	}
	return g
}

// Step runs compute(r, w, grad) once per worker w — on replica r, which
// must leave worker w's gradient in grad — allreduces the buffers to
// their mean and hands it to apply.  Replicas claim worker indices in
// ascending order from a shared counter; replica 0 is the calling
// goroutine, so a single replica is a plain loop, and every goroutine
// Step starts has returned before Step does.
//
// A replica stops claiming once ctx is done or a worker has failed.
// Step then returns ctx.Err() if the context ended, otherwise the error
// of the lowest-numbered failing worker: every worker below it was
// claimed earlier and runs to completion, so which error is returned
// does not depend on the replica count or on timing.  apply runs only
// when every worker succeeded.
func (g *Group) Step(ctx context.Context, compute func(r, w int, grad []float64) error, apply func(mean []float64)) error {
	clear(g.errs)
	var next atomic.Int64
	var failed atomic.Bool
	run := func(r int) {
		for ctx.Err() == nil && !failed.Load() {
			w := int(next.Add(1)) - 1
			if w >= g.NWorkers {
				return
			}
			if g.errs[w] = compute(r, w, g.flat[w]); g.errs[w] != nil {
				failed.Store(true)
			}
		}
	}
	var wg sync.WaitGroup
	for r := 1; r < g.Replicas; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(r)
		}()
	}
	run(0)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range g.errs {
		if err != nil {
			return err
		}
	}
	if err := AllReduceMean(g.flat); err != nil {
		return err
	}
	apply(g.flat[0])
	return nil
}
