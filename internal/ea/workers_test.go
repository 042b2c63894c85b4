package ea

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// workerGoroutines counts the goroutines serving some Workers, and how
// many of them are idle, waiting for a function.
func workerGoroutines() (n, idle int) {
	buf := make([]byte, 1<<20)
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "ea.(*Workers).serve") {
			n++
			if strings.Contains(g, "[chan receive") {
				idle++
			}
		}
	}
	return n, idle
}

// peakEvaluator records the most evaluations it saw in flight at once.
type peakEvaluator struct {
	inflight, peak atomic.Int64
	sleep          time.Duration
}

func (p *peakEvaluator) Evaluate(ctx context.Context, g Genome) (Fitness, error) {
	cur := p.inflight.Add(1)
	defer p.inflight.Add(-1)
	for {
		old := p.peak.Load()
		if cur <= old || p.peak.CompareAndSwap(old, cur) {
			break
		}
	}
	time.Sleep(p.sleep)
	return Fitness{g[0], -g[0]}, nil
}

// TestWorkersSharedByTwoEvalPools cancels one of two EvalPool calls on
// one Workers: the cancelled call's individuals stay unevaluated with the
// cancellation recorded, launched or not, and the other call evaluates
// every individual it was given.
func TestWorkersSharedByTwoEvalPools(t *testing.T) {
	w := NewWorkers(3)
	defer w.Close()
	rng := rand.New(rand.NewSource(6))
	blocked, kept := RandomPopulation(rng, testBounds(), 10, 0), RandomPopulation(rng, testBounds(), 12, 0)

	started := make(chan struct{}, len(blocked))
	blocker := EvaluatorFunc(func(ctx context.Context, _ Genome) (Fitness, error) {
		started <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	})
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		EvalPool(ctx, Source(blocked), len(blocked), blocker, PoolConfig{Parallelism: 2, Objectives: 2, Workers: w})
	}()
	go func() {
		defer wg.Done()
		EvalPool(context.Background(), Source(kept), len(kept), &peakEvaluator{sleep: time.Millisecond},
			PoolConfig{Parallelism: 2, Objectives: 2, Workers: w})
	}()
	<-started
	cancel()
	wg.Wait()

	launched := len(started) + 1
	if launched > 2 {
		t.Errorf("the cancelled call launched %d evaluations past its Parallelism 2", launched)
	}
	for i, ind := range blocked {
		if ind.Evaluated || ind.Fitness.IsFailure() || !errors.Is(ind.Err, context.Canceled) {
			t.Errorf("cancelled call, individual %d: evaluated=%v fitness=%v err=%v; want unevaluated, context.Canceled",
				i, ind.Evaluated, ind.Fitness, ind.Err)
		}
	}
	for i, ind := range kept {
		if !ind.Evaluated || ind.Err != nil || ind.Fitness.IsFailure() {
			t.Errorf("other call, individual %d: evaluated=%v fitness=%v err=%v", i, ind.Evaluated, ind.Fitness, ind.Err)
		}
	}
}

// TestWorkersParallelismBoundsEachCall runs two calls at Parallelism 3 on
// a Workers of 8: neither call has more than 3 evaluations in flight,
// though the goroutines would allow it.
func TestWorkersParallelismBoundsEachCall(t *testing.T) {
	w := NewWorkers(8)
	defer w.Close()
	rng := rand.New(rand.NewSource(7))
	evs := []*peakEvaluator{{sleep: time.Millisecond}, {sleep: time.Millisecond}}
	var wg sync.WaitGroup
	for _, ev := range evs {
		wg.Add(1)
		pop := RandomPopulation(rng, testBounds(), 30, 0)
		go func() {
			defer wg.Done()
			for _, ind := range EvalPool(context.Background(), Source(pop), len(pop), ev, PoolConfig{Parallelism: 3, Objectives: 2, Workers: w}) {
				if !ind.Evaluated {
					t.Errorf("individual %s not evaluated", ind.ID)
				}
			}
		}()
	}
	wg.Wait()
	for i, ev := range evs {
		if p := ev.peak.Load(); p > 3 || p < 2 {
			t.Errorf("call %d: peak in flight %d, want 2 or 3 under Parallelism 3", i, p)
		}
	}
}

// TestWorkersStartOnDemandAndCloseWaits: one function at a time runs on
// one reused goroutine; Close waits for a running function, and returns
// only once every goroutine it started has exited.
func TestWorkersStartOnDemandAndCloseWaits(t *testing.T) {
	noWorkers(t, "before the test")
	w := NewWorkers(4)
	for i := 0; i < 5; i++ {
		if !w.Go(context.Background(), func() {}) {
			t.Fatal("Go refused a live context")
		}
		for j := 0; ; j++ {
			if _, idle := workerGoroutines(); idle > 0 {
				break
			}
			if j == 2000 {
				t.Fatalf("function %d: no worker goroutine went back to waiting for work", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if n, _ := workerGoroutines(); n != 1 {
		t.Errorf("%d worker goroutines after five sequential functions, want 1 reused", n)
	}

	release := make(chan struct{})
	var running sync.WaitGroup
	running.Add(4)
	for i := 0; i < 4; i++ {
		w.Go(context.Background(), func() { running.Done(); <-release })
	}
	running.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if w.Go(ctx, func() { t.Error("ran on a full Workers after its context ended") }) {
		t.Error("Go on a full Workers returned true after its context ended")
	}

	closed := make(chan struct{})
	go func() {
		w.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while functions were running")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-closed
	noWorkers(t, "after Close returned")
}

// noWorkers fails unless no worker goroutine is left.  A goroutine has
// signalled Close from its last deferred call, so it may still be on
// its way out: give it a moment, not a function's worth of work.
func noWorkers(t *testing.T, when string) {
	t.Helper()
	for i := 0; ; i++ {
		n, _ := workerGoroutines()
		if n == 0 {
			return
		}
		if i == 100 {
			t.Fatalf("%d worker goroutines %s, want 0", n, when)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWorkersServeWaitersInArrivalOrder: callers blocked in Go on a full
// Workers get its goroutine first come, first served, which is what
// makes a tenant's lanes take the quota round-robin.
func TestWorkersServeWaitersInArrivalOrder(t *testing.T) {
	w := NewWorkers(1)
	defer w.Close()
	release := make(chan struct{})
	busy := make(chan struct{})
	w.Go(context.Background(), func() { close(busy); <-release })
	<-busy

	const waiters = 5
	var (
		mu    sync.Mutex
		order []int
		wg    sync.WaitGroup
	)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Go(context.Background(), func() {
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			})
		}()
		// Caller i must be parked in Go before caller i+1 arrives.
		for j := 0; blockedInGo() < i+1; j++ {
			if j == 2000 {
				t.Fatalf("caller %d never blocked in Go", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	close(release)
	wg.Wait()
	for n := 0; ; n++ { // the last function may still be running
		mu.Lock()
		got := append([]int(nil), order...)
		mu.Unlock()
		if len(got) == waiters {
			for i, v := range got {
				if v != i {
					t.Fatalf("waiters ran in order %v, want arrival order", got)
				}
			}
			return
		}
		if n == 2000 {
			t.Fatalf("only %d of %d functions ran", len(got), waiters)
		}
		time.Sleep(time.Millisecond)
	}
}

// blockedInGo counts goroutines parked in Workers.Go's select.
func blockedInGo() int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "[select") && strings.Contains(g, "ea.(*Workers).Go(") {
			n++
		}
	}
	return n
}
