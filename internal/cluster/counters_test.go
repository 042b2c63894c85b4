package cluster

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// The scheduler's lifecycle events — a registration, an assignment, a
// delivered result, a disconnect — are counted in Stats, one atomic
// field each.  These tests hold those fields to the events a run makes.

// lifecycle is the part of Stats these tests pin: the event counters,
// without the Pending gauge.
type lifecycle struct {
	Registered, Disconnected, Workers, Assigned, Delivered   int64
	Completed, Failed, Reassigned, Expired, Stale, Abandoned int64
}

func lifecycleOf(st Stats) lifecycle {
	return lifecycle{
		Registered: st.Registered, Disconnected: st.Disconnected, Workers: st.Workers,
		Assigned: st.Assigned, Delivered: st.Delivered,
		Completed: st.Completed, Failed: st.Failed, Reassigned: st.Reassigned,
		Expired: st.Expired, Stale: st.Stale, Abandoned: st.Abandoned,
	}
}

// TestEventCountersTallyAndOrder tallies one worker's whole lifecycle —
// connect, three tasks, disconnect — and checks every snapshot taken
// along the way is in order: no counter goes backwards and Workers
// (Registered − Disconnected) is never negative.
func TestEventCountersTallyAndOrder(t *testing.T) {
	sched, err := NewScheduler("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()
	if got := lifecycleOf(sched.Stats()); got != (lifecycle{}) {
		t.Fatalf("fresh scheduler Stats = %+v, want all zero", got)
	}

	var prev lifecycle
	check := func(when string) lifecycle {
		t.Helper()
		cur := lifecycleOf(sched.Stats())
		if cur.Workers < 0 {
			t.Errorf("%s: Workers = %d, want >= 0", when, cur.Workers)
		}
		for _, c := range []struct {
			name     string
			was, now int64
		}{
			{"Registered", prev.Registered, cur.Registered},
			{"Disconnected", prev.Disconnected, cur.Disconnected},
			{"Assigned", prev.Assigned, cur.Assigned},
			{"Delivered", prev.Delivered, cur.Delivered},
			{"Completed", prev.Completed, cur.Completed},
		} {
			if c.now < c.was {
				t.Errorf("%s: %s went back from %d to %d", when, c.name, c.was, c.now)
			}
		}
		prev = cur
		return cur
	}

	w, err := NewWorker(sched.Addr(), "tallied", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = w.Run(ctx)
	}()
	if got := check("registered"); got.Registered != 1 || got.Workers != 1 {
		t.Errorf("after register: Registered = %d, Workers = %d, want 1, 1", got.Registered, got.Workers)
	}

	for i := 0; i < 3; i++ {
		if _, err := sched.Submit(context.Background(), []byte(fmt.Sprintf(`{"i":%d}`, i))); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("task %d", i))
	}
	// Assigned is counted after the write to the worker and Delivered
	// after the result reaches its submitter: both can trail Submit.
	waitFor(t, "three assigns and results", func() bool {
		st := sched.Stats()
		return st.Assigned == 3 && st.Delivered == 3
	})
	want := lifecycle{Registered: 1, Workers: 1, Assigned: 3, Delivered: 3, Completed: 3}
	if got := check("three tasks"); got != want {
		t.Errorf("after three tasks Stats = %+v, want %+v", got, want)
	}

	cancel()
	if err := w.Close(); err != nil {
		t.Logf("worker close: %v", err)
	}
	<-done
	waitFor(t, "the disconnect", func() bool { return sched.Stats().Disconnected == 1 })
	want.Disconnected, want.Workers = 1, 0
	if got := check("disconnected"); got != want {
		t.Errorf("after disconnect Stats = %+v, want %+v", got, want)
	}
}

// TestEventCountersConcurrentRecord counts from many goroutines at once:
// workers registering together and submitters racing each other.  Every
// event must be counted exactly once (and -race must see no unguarded
// access to the counters).
func TestEventCountersConcurrentRecord(t *testing.T) {
	sched, err := NewScheduler("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	watchBooks(t, sched)
	defer sched.Close()

	const workers, submitters, per = 4, 8, 25
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	ws := make([]*Worker, workers)
	errs := make(chan error, workers+submitters)
	for i := range ws {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w, err := NewWorker(sched.Addr(), fmt.Sprintf("w%d", i), echoHandler)
			if err != nil {
				errs <- err
				return
			}
			ws[i] = w
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var running sync.WaitGroup
	for _, w := range ws {
		running.Add(1)
		go func(w *Worker) {
			defer running.Done()
			_ = w.Run(ctx)
		}(w)
	}
	defer func() {
		cancel()
		for _, w := range ws {
			_ = w.Close()
		}
		running.Wait()
	}()
	if st := sched.Stats(); st.Registered != workers || st.Workers != workers {
		t.Fatalf("after %d concurrent registrations Stats = %+v", workers, st)
	}

	subErrs := make(chan error, submitters)
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := sched.Submit(context.Background(), []byte(fmt.Sprintf(`{"s":%d,"i":%d}`, s, i))); err != nil {
					subErrs <- err
					return
				}
			}
		}(s)
	}
	wg.Wait()
	close(subErrs)
	for err := range subErrs {
		t.Fatal(err)
	}
	const total = submitters * per
	waitFor(t, "every assign and result", func() bool {
		st := sched.Stats()
		return st.Assigned == total && st.Delivered == total
	})
	want := lifecycle{Registered: workers, Workers: workers, Assigned: total, Delivered: total, Completed: total}
	if got := lifecycleOf(sched.Stats()); got != want {
		t.Errorf("after %d concurrent tasks Stats = %+v, want %+v", total, got, want)
	}
	var completed int64
	for _, w := range sched.WorkerStats() {
		completed += w.Completed
	}
	if completed != total {
		t.Errorf("WorkerStats completed sum = %d, want %d", completed, total)
	}
}

// TestEventCountersOnScheduler runs one task on a LocalCluster, the way
// cmd/serve does, and checks the connect/assign/result lifecycle of that
// task is counted — the in-process worker's registration included.
func TestEventCountersOnScheduler(t *testing.T) {
	lc, err := NewLocalCluster(1, echoHandler, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := lc.Close(); err != nil {
			t.Logf("close: %v", err)
		}
	}()
	if got := lc.Scheduler.Stats(); got.Registered != 1 || got.Workers != 1 {
		t.Errorf("LocalCluster(1) Stats: Registered = %d, Workers = %d, want 1, 1", got.Registered, got.Workers)
	}
	if _, err := lc.Scheduler.Submit(context.Background(), []byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	// The assign is counted after the write to the worker, the result
	// after it is handed to the submitter, so the answer can reach the
	// submitter first.
	waitFor(t, "the assign and the delivered result", func() bool {
		st := lc.Scheduler.Stats()
		return st.Assigned >= 1 && st.Delivered >= 1
	})
	st := lc.Scheduler.Stats()
	if st.Assigned != 1 {
		t.Errorf("Assigned = %d after one task, want 1", st.Assigned)
	}
	if st.Delivered != 1 {
		t.Errorf("Delivered = %d after one task, want 1", st.Delivered)
	}
}

// TestEventHookAndWorkerStats sanity-checks the observability surface:
// the connect/assign/result counters in Stats move and the per-worker
// counters accumulate.
func TestEventHookAndWorkerStats(t *testing.T) {
	sched, err := NewScheduler("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	watchBooks(t, sched)
	defer sched.Close()

	w, err := NewWorker(sched.Addr(), "observed", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	go func() { _ = w.Run(context.Background()) }()

	for i := 0; i < 5; i++ {
		if _, err := sched.Submit(context.Background(), []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
	}

	// Assigned moves after the write to the worker, Delivered and the
	// worker's counters after the result is handed to the submitter: the
	// fifth result can be back before either.
	waitFor(t, "five assigns and results", func() bool {
		st := sched.Stats()
		return st.Assigned >= 5 && st.Delivered >= 5
	})
	if st := sched.Stats(); st.Registered != 1 || st.Assigned != 5 || st.Delivered != 5 {
		t.Errorf("Stats after five tasks: Registered = %d, Assigned = %d, Delivered = %d, want 1, 5, 5",
			st.Registered, st.Assigned, st.Delivered)
	}
	ws := sched.WorkerStats()
	if len(ws) != 1 || ws[0].Name != "observed" || ws[0].Completed != 5 {
		t.Fatalf("WorkerStats = %+v", ws)
	}
	if !strings.Contains(ws[0].String(), "completed=5") {
		t.Errorf("WorkerStats.String() = %q", ws[0].String())
	}
}
