// Package ddp simulates Horovod-style distributed data-parallel training
// (§2.1.2): several workers each compute gradients on their own shard of a
// minibatch, the gradients are averaged in a fixed order, and one averaged
// update is applied.  The paper's scale_by_worker gene controls how the
// learning rate is scaled by the worker count in this regime;
// nn.WorkerScale implements the schemes.
//
// There is no allgather.  Horovod's ranks each hold their own copy of the
// parameters, so its allreduce must leave the mean on every rank.  The
// simulated workers here run on in-process replicas that share one
// parameter copy, so the mean is reduced once, into one destination (the
// model's gradient), and the single optimizer step taken on it is seen by
// every replica.
package ddp

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ReduceMean writes the elementwise mean of buffers into dst, leaving the
// buffers untouched.  It is the reduce-scatter half of a ring allreduce:
// chunk k of dst is computed on its own goroutine as buffers[k] plus the
// peers p = 0, 1, … in ascending order (k skipped), then scaled by
// 1/len(buffers) — a fixed per-element order, so the mean is the same
// bits however the chunks are scheduled.
func ReduceMean(dst []float64, buffers [][]float64) error {
	if len(buffers) == 0 {
		return errors.New("ddp: no buffers to reduce")
	}
	for i, b := range buffers {
		if len(b) != len(dst) {
			return fmt.Errorf("ddp: buffer %d length %d != %d", i, len(b), len(dst))
		}
	}
	var wg sync.WaitGroup
	for k := 1; k < len(buffers); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reduceChunk(dst, buffers, k)
		}()
	}
	reduceChunk(dst, buffers, 0)
	wg.Wait()
	return nil
}

// reduceChunk writes chunk k of the mean (see ReduceMean) into dst.
func reduceChunk(dst []float64, buffers [][]float64, k int) {
	n, w := len(dst), len(buffers)
	lo, hi := k*n/w, (k+1)*n/w
	d := dst[lo:hi]
	copy(d, buffers[k][lo:hi])
	for p, peer := range buffers {
		if p == k {
			continue
		}
		for i, v := range peer[lo:hi] {
			d[i] += v
		}
	}
	inv := 1 / float64(w)
	for i := range d {
		d[i] *= inv
	}
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

// Group runs the data-parallel step "workers compute → reduce to the
// mean": NWorkers gradient computations per step, at most Replicas of
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
// must leave worker w's gradient in grad, whatever grad held before — and
// writes the workers' mean gradient into dst (ReduceMean).  Replicas
// claim worker indices in ascending order from a shared counter; replica
// 0 is the calling goroutine, so a single replica is a plain loop, and
// every goroutine Step starts has returned before Step does.
//
// A replica stops claiming once ctx is done or a worker has failed.
// Step then returns ctx.Err() if the context ended, otherwise the error
// of the lowest-numbered failing worker: every worker below it was
// claimed earlier and runs to completion, so which error is returned
// does not depend on the replica count or on timing.  dst is written
// only when every worker succeeded.
func (g *Group) Step(ctx context.Context, compute func(r, w int, grad []float64) error, dst []float64) error {
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
	return ReduceMean(dst, g.flat)
}
