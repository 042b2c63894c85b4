package cluster

// Fences for how the scheduler pairs idle workers with queued tasks: an
// idle worker's disconnect is seen, the worker idle longest is leased
// first, a worker whose lease ran out does not win its task back ahead
// of an idle one, and no task waits in the queue while a worker idles.

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestIdleWorkerDisconnectIsSeen: a worker that registers, is never
// leased a task and then disconnects leaves Stats.Workers and
// WorkerStats within a second, over either connection.
func TestIdleWorkerDisconnectIsSeen(t *testing.T) {
	for _, kind := range connKinds {
		t.Run(kind.name, func(t *testing.T) {
			sched, err := NewScheduler("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer sched.Close()
			w, err := kind.join(sched, "idler", echoHandler)
			if err != nil {
				t.Fatal(err)
			}
			go func() { _ = w.Run(context.Background()) }()
			if st, ws := sched.Stats(), sched.WorkerStats(); st.Workers != 1 || len(ws) != 1 {
				t.Fatalf("registered worker not on the books: %+v, %v", st, ws)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(time.Second); sched.Stats().Workers != 0 || len(sched.WorkerStats()) != 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("idle worker still on the books 1s after it disconnected: %+v, %v", sched.Stats(), sched.WorkerStats())
				}
			}
			if st := sched.Stats(); st.Assigned != 0 || st.Disconnected != 1 {
				t.Errorf("after the idle worker left: %+v, want nothing assigned and one disconnect", st)
			}
		})
	}
}

// TestIdleWorkerLeaseOrder: of two idle workers, the one idle longer is
// leased the task.  It hangs on it; once the lease runs out the task goes
// to the other, already idle worker, not back to the one it bounced off.
func TestIdleWorkerLeaseOrder(t *testing.T) {
	for _, kind := range connKinds {
		t.Run(kind.name, func(t *testing.T) {
			sched, err := NewScheduler("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			settled := watchBooks(t, sched)
			sched.TaskTimeout = 50 * time.Millisecond
			sched.MaxAttempts = 10
			defer sched.Close()

			stuck, started := make(chan struct{}), make(chan struct{})
			defer close(stuck)
			var firstCalls, secondCalls atomic.Int64
			first, err := kind.join(sched, "first", func(_ context.Context, payload []byte) ([]byte, error) {
				if firstCalls.Add(1) == 1 {
					close(started)
					<-stuck // ignores ctx until the test ends
				}
				return payload, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			defer first.Close()
			go func() { _ = first.Run(context.Background()) }()
			time.Sleep(50 * time.Millisecond) // "first" idles longer

			second, err := kind.join(sched, "second", func(_ context.Context, payload []byte) ([]byte, error) {
				secondCalls.Add(1)
				return payload, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			defer second.Close()
			go func() { _ = second.Run(context.Background()) }()

			res := make(chan error, 1)
			go func() {
				_, err := sched.Submit(context.Background(), json.RawMessage(`{"x":1}`))
				res <- err
			}()
			select {
			case <-started:
			case <-time.After(5 * time.Second):
				t.Fatalf("the worker idle longer was never leased the task: %v", sched.WorkerStats())
			}
			select {
			case err := <-res:
				if err != nil {
					t.Fatalf("task not rescued after its lease ran out: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("task never rescued after its lease ran out")
			}
			settled()
			if n := firstCalls.Load(); n != 1 {
				t.Errorf("the worker whose lease ran out ran the task %d times, want once", n)
			}
			if n := secondCalls.Load(); n != 1 {
				t.Errorf("the idle worker ran the requeued task %d times, want once", n)
			}
			if st := sched.Stats(); st.Expired != 1 || st.Reassigned != 1 || st.Completed != 1 {
				t.Errorf("books after one expiry: %+v, want one expiry, one reassignment, one completion", st)
			}
		})
	}
}

// TestIdleWorkerStress: rounds of concurrent submitters against four
// workers (two over TCP, two in memory) that go idle at the end of every
// round and busy at the start of the next.  A task left in the queue
// while a worker idles hangs its round, which fails the test; the books
// balance at the end and the queue is empty.
func TestIdleWorkerStress(t *testing.T) {
	sched, err := NewScheduler("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	settled := watchBooks(t, sched)
	defer sched.Close()
	handler := func(_ context.Context, payload []byte) ([]byte, error) {
		if payload[len(payload)-1]%3 == 0 {
			runtime.Gosched()
		}
		return payload, nil
	}
	for i := 0; i < 4; i++ {
		kind := connKinds[i%len(connKinds)]
		w, err := kind.join(sched, fmt.Sprintf("%s-%d", kind.name, i), handler)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		go func() { _ = w.Run(context.Background()) }()
	}

	const rounds, submitters = 200, 16
	total := 0
	for r := 0; r < rounds; r++ {
		n := 1 + (r*7)%submitters // from fewer tasks than workers to four per worker
		total += n
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		var wg sync.WaitGroup
		errs := make(chan error, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				payload := []byte{byte(r), byte(i)}
				if out, err := sched.Submit(ctx, payload); err != nil || string(out) != string(payload) {
					errs <- fmt.Errorf("round %d task %d: %v, %v", r, i, out, err)
				}
			}()
		}
		wg.Wait()
		cancel()
		close(errs)
		for err := range errs {
			t.Fatalf("%v (a task stranded while a worker idled?): %+v", err, sched.Stats())
		}
	}
	settled()
	if st := sched.Stats(); st.Submitted != int64(total) || st.Completed != int64(total) || st.Pending != 0 {
		t.Errorf("after %d tasks: %+v, want every one completed and the queue empty", total, st)
	}
}

// TestOneSchedulerGoroutinePerWorker: the scheduler runs one goroutine
// per worker connection, its read loop in (*Scheduler).handleConn, plus
// its accept loop, whether the workers idle or hold tasks, with or
// without leases that time out; nothing else of the scheduler's runs,
// and a lease has an expiry timer only when leases time out.
func TestOneSchedulerGoroutinePerWorker(t *testing.T) {
	const (
		pkg        = "repro/internal/cluster."
		handleConn = pkg + "(*Scheduler).handleConn"
		submit     = pkg + "(*Scheduler).Submit"
	)
	// scheduler counts the goroutines running scheduler code, submitters
	// waiting on their tasks aside (no other goroutine of the test calls
	// the scheduler).
	scheduler := func() int {
		n := 0
		for _, g := range strings.Split(allStacks(), "\n\n") {
			if (strings.Contains(g, "\n"+pkg+"(*Scheduler).") || strings.Contains(g, "\n"+pkg+"(*workerProxy).")) && !strings.Contains(g, "\n"+submit) {
				n++
			}
		}
		return n
	}
	waitFor(t, "earlier tests' schedulers to exit", func() bool { return scheduler() == 0 })
	for _, timeout := range []time.Duration{0, time.Hour} {
		t.Run(fmt.Sprintf("lease=%v", timeout), func(t *testing.T) {
			sched, err := NewScheduler("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			sched.TaskTimeout = timeout
			defer func() {
				sched.Close()
				waitFor(t, "the scheduler's goroutines to exit", func() bool { return scheduler() == 0 })
			}()

			gate := make(chan struct{})
			held := func(_ context.Context, payload []byte) ([]byte, error) {
				<-gate
				return payload, nil
			}
			const workers = 4
			for i := 0; i < workers; i++ {
				kind := connKinds[i%len(connKinds)]
				w, err := kind.join(sched, fmt.Sprintf("%s-%d", kind.name, i), held)
				if err != nil {
					t.Fatal(err)
				}
				defer w.Close()
				go func() { _ = w.Run(context.Background()) }()
			}
			check := func(when string) {
				t.Helper()
				if n := goroutinesIn(handleConn); n != workers {
					t.Errorf("%s: %d (*Scheduler).handleConn goroutines, want one per worker (%d)\n%s", when, n, workers, allStacks())
				}
				if n := scheduler(); n != workers+1 {
					t.Errorf("%s: %d scheduler goroutines, want %d: one per worker and the accept loop\n%s", when, n, workers+1, allStacks())
				}
			}
			check("idle workers")

			results := make(chan error, workers)
			for i := 0; i < workers; i++ {
				go func() {
					_, err := sched.Submit(context.Background(), []byte{byte(i)})
					results <- err
				}()
			}
			waitFor(t, "every worker to hold a task", func() bool {
				for _, ws := range sched.WorkerStats() {
					if ws.InFlight != 1 {
						return false
					}
				}
				return true
			})
			check("every worker holding a task")
			sched.workersMu.Lock()
			for w := range sched.workers {
				w.mu.Lock()
				if armed := w.l.timer != nil; armed != (timeout > 0) {
					t.Errorf("worker %q: lease timer armed %v with TaskTimeout %v", w.name, armed, timeout)
				}
				w.mu.Unlock()
			}
			sched.workersMu.Unlock()

			close(gate)
			for i := 0; i < workers; i++ {
				if err := <-results; err != nil {
					t.Fatal(err)
				}
			}
			if st := sched.Stats(); st.Completed != workers || st.Submitted != workers {
				t.Errorf("books: %+v, want %d tasks submitted and completed", st, workers)
			}
			check("workers idle again")
		})
	}
}
