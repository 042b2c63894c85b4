package cluster

// This file is the fault-injection harness for the evaluation plane: a
// deterministic chaos TCP proxy that can cut, blackhole, corrupt and
// truncate traffic between workers and the scheduler, plus the
// failure-path tests that exercise every recovery mechanism — lease
// expiry, stale result discard, duplicate accounting, asynchronous task
// timeout, worker reconnection, and every worker link cut mid-campaign.
// Faults are driven explicitly from the tests (no randomness), so each
// recovery path is reproduced on every run.

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster/wire"
	"repro/internal/ea"
	"repro/internal/nsga2"
)

// chaosProxy forwards TCP between accepted connections and a target
// address, applying injected faults on the way.
type chaosProxy struct {
	ln     net.Listener
	target string

	mu        sync.Mutex
	pipes     []*chaosPipe
	blackhole bool         // swallow all forwarded bytes (peers see a hang)
	truncate  int          // >0: forward this many more bytes toward the target side, then cut
	mutate    func([]byte) // applied in place to the next toward-target chunk, then disarmed
	closed    bool
}

type chaosPipe struct {
	client, server net.Conn
	once           sync.Once
}

func (p *chaosPipe) close() {
	p.once.Do(func() {
		p.client.Close()
		p.server.Close()
	})
}

func newChaosProxy(t testing.TB, target string) *chaosProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("chaos proxy listen: %v", err)
	}
	cp := &chaosProxy{ln: ln, target: target}
	go cp.acceptLoop()
	t.Cleanup(cp.Close)
	return cp
}

func (cp *chaosProxy) Addr() string { return cp.ln.Addr().String() }

func (cp *chaosProxy) acceptLoop() {
	for {
		conn, err := cp.ln.Accept()
		if err != nil {
			return
		}
		server, err := net.Dial("tcp", cp.target)
		if err != nil {
			conn.Close()
			continue
		}
		pipe := &chaosPipe{client: conn, server: server}
		cp.mu.Lock()
		if cp.closed {
			cp.mu.Unlock()
			pipe.close()
			return
		}
		cp.pipes = append(cp.pipes, pipe)
		cp.mu.Unlock()
		go cp.forward(server, conn, pipe, true)  // client → server (toward scheduler)
		go cp.forward(conn, server, pipe, false) // server → client
	}
}

// forward copies src to dst, consulting the fault settings before every
// chunk.  Truncation applies to the toward-target direction only, so a
// test can slice a specific frame in half.
func (cp *chaosProxy) forward(dst, src net.Conn, pipe *chaosPipe, towardTarget bool) {
	defer pipe.close()
	buf := make([]byte, 4096)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			cp.mu.Lock()
			blackhole := cp.blackhole
			cut := false
			limit := n
			if towardTarget && cp.truncate > 0 {
				if n >= cp.truncate {
					limit = cp.truncate
					cp.truncate = 0
					cut = true
				} else {
					cp.truncate -= n
				}
			}
			var mutate func([]byte)
			if towardTarget && cp.mutate != nil {
				mutate, cp.mutate = cp.mutate, nil
			}
			cp.mu.Unlock()
			if mutate != nil {
				mutate(buf[:limit])
			}
			if !blackhole {
				if _, werr := dst.Write(buf[:limit]); werr != nil {
					return
				}
			}
			if cut {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// CutAll severs every live pipe, simulating a network partition or a
// scheduler crash as seen from the proxied peers.
func (cp *chaosProxy) CutAll() {
	cp.mu.Lock()
	pipes := append([]*chaosPipe(nil), cp.pipes...)
	cp.pipes = cp.pipes[:0]
	cp.mu.Unlock()
	for _, p := range pipes {
		p.close()
	}
}

// SetBlackhole toggles silent byte-dropping: connections stay up but no
// data flows, the signature of a hung NIC or a stalled node.
func (cp *chaosProxy) SetBlackhole(on bool) {
	cp.mu.Lock()
	cp.blackhole = on
	cp.mu.Unlock()
}

// MutateNext applies f (in place) to the next toward-target chunk, then
// disarms — a single corrupted frame on an otherwise healthy link, for
// flipped length prefixes and bad magic bytes.
func (cp *chaosProxy) MutateNext(f func([]byte)) {
	cp.mu.Lock()
	cp.mutate = f
	cp.mu.Unlock()
}

// TruncateAfter forwards n more toward-target bytes, then cuts the pipe —
// the peer receives a sliced frame.
func (cp *chaosProxy) TruncateAfter(n int) {
	cp.mu.Lock()
	cp.truncate = n
	cp.mu.Unlock()
}

func (cp *chaosProxy) Close() {
	cp.mu.Lock()
	cp.closed = true
	cp.mu.Unlock()
	cp.ln.Close()
	cp.CutAll()
}

// --- failure-path tests -------------------------------------------------

// connKinds are the two connections a worker can hold to its scheduler:
// TCP to the scheduler's listener, and the in-memory one LocalCluster
// gives in-process workers.
var connKinds = []struct {
	name string
	join func(s *Scheduler, name string, h Handler) (*Worker, error)
}{
	{"tcp", func(s *Scheduler, name string, h Handler) (*Worker, error) { return NewWorker(s.Addr(), name, h) }},
	{"mem", func(s *Scheduler, name string, h Handler) (*Worker, error) { return newWorker(name, h, s.dial) }},
}

// TestLeaseExpiryKeepsSlowWorkerAlive, over either connection: a task
// that outlasts the scheduler lease without a heartbeat is reassigned to
// another worker, and the silent worker is dropped, as a hung one is —
// the two cannot be told apart.  A slow worker that finishes re-dials
// and serves the next tasks; one still busy is never leased another.
func TestLeaseExpiryKeepsSlowWorkerAlive(t *testing.T) {
	for _, kind := range connKinds {
		t.Run(kind.name, func(t *testing.T) {
			t.Run("slow_worker_kept", func(t *testing.T) { testSlowWorkerKept(t, kind.join) })
			t.Run("busy_worker_reassigned", func(t *testing.T) { testBusyWorkerReassigned(t, kind.join) })
		})
	}
}

func testSlowWorkerKept(t *testing.T, join func(*Scheduler, string, Handler) (*Worker, error)) {
	sched, err := NewScheduler("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	watchBooks(t, sched)
	sched.TaskTimeout = 80 * time.Millisecond
	sched.MaxAttempts = 10
	defer sched.Close()

	var slowCalls, slowServed atomic.Int64
	slowHandler := func(_ context.Context, payload []byte) ([]byte, error) {
		if slowCalls.Add(1) == 1 {
			time.Sleep(300 * time.Millisecond) // ignores ctx: the classic slow training
		}
		slowServed.Add(1)
		return payload, nil
	}
	slow, err := join(sched, "slow", slowHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	go func() { _ = slow.Run(context.Background()) }()

	// Submit while only the slow worker is connected, so it must take the
	// first task.
	resCh := make(chan error, 1)
	go func() {
		_, err := sched.Submit(context.Background(), json.RawMessage(`{"first":true}`))
		resCh <- err
	}()
	time.Sleep(30 * time.Millisecond) // let the slow worker take the task

	rescue, err := join(sched, "rescue", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = rescue.Run(context.Background()) }()

	select {
	case err := <-resCh:
		if err != nil {
			t.Fatalf("task not rescued after lease expiry: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("task never completed")
	}

	// Let the slow worker finish its reassigned task: its result dies
	// with the connection the lease closed, and it re-dials.
	time.Sleep(350 * time.Millisecond)

	// Kill the rescuer so subsequent tasks can only be served by the slow
	// worker — proving it came back into the pool.
	rescue.Close()
	time.Sleep(20 * time.Millisecond)
	for i := 0; i < 3; i++ {
		if _, err := sched.Submit(context.Background(), json.RawMessage(fmt.Sprintf(`{"i":%d}`, i))); err != nil {
			t.Fatalf("slow worker no longer serving task %d: %v", i, err)
		}
	}

	st := sched.Stats()
	if st.Expired != 1 || st.Reassigned != 1 {
		t.Errorf("want one lease expiry and one reassignment: %+v", st)
	}
	if st.Stale != 0 {
		t.Errorf("a result over the connection the lease closed was read: %+v", st)
	}
	if st.Registered != 3 {
		t.Errorf("want the slow worker to register twice and the rescuer once: %+v", st)
	}
	if st.Completed+st.Failed != st.Submitted {
		t.Errorf("books don't balance: %+v", st)
	}
	if got := slowServed.Load(); got < 3 {
		t.Errorf("slow worker served %d tasks after lease expiry, want >= 3", got)
	}
	found := false
	for _, ws := range sched.WorkerStats() {
		found = found || ws.Name == "slow"
	}
	if !found {
		t.Error("slow worker missing from WorkerStats — it never re-registered")
	}
}

// testBusyWorkerReassigned: task 1 is stuck on the only worker, and task
// 2 waits behind it, until task 1's lease runs out.  That drops the busy
// worker, so task 2 is never leased to it, and both tasks wait in the
// queue.  A second worker that joins then rescues both, while the first
// handler is still stuck.
func testBusyWorkerReassigned(t *testing.T, join func(*Scheduler, string, Handler) (*Worker, error)) {
	sched, err := NewScheduler("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	settled := watchBooks(t, sched)
	const lease = 100 * time.Millisecond
	sched.TaskTimeout = lease
	sched.MaxAttempts = 10
	defer sched.Close()

	stuck, started := make(chan struct{}), make(chan struct{})
	defer close(stuck)
	var calls atomic.Int64
	busy, err := join(sched, "busy", func(_ context.Context, payload []byte) ([]byte, error) {
		if calls.Add(1) == 1 {
			close(started)
			<-stuck // ignores ctx until the test ends
		}
		return payload, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	go func() { _ = busy.Run(context.Background()) }()

	results := make(chan error, 2)
	submit := func(payload string) {
		go func() {
			_, err := sched.Submit(context.Background(), json.RawMessage(payload))
			results <- err
		}()
	}
	submit(`{"task":1}`)
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("the busy worker never started task 1")
	}
	submit(`{"task":2}`)
	waitFor(t, "the busy worker to be dropped once task 1's lease expired, both tasks queued", func() bool {
		st := sched.Stats()
		return st.Expired == 1 && st.Disconnected == 1 && st.Pending == 2 && len(sched.WorkerStats()) == 0
	})

	rescue, err := join(sched, "rescue", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer rescue.Close()
	go func() { _ = rescue.Run(context.Background()) }()

	deadline := time.After(5 * lease)
	for i := 0; i < 2; i++ {
		select {
		case err := <-results:
			if err != nil {
				t.Fatalf("task not rescued: %v", err)
			}
		case <-deadline:
			t.Fatalf("the tasks queued when the busy worker was dropped were not rescued within %v: %+v", 5*lease, sched.Stats())
		}
	}
	settled()
	// WorkerStats.Completed is bumped after the result is published, and
	// Assigned after the assign frame is written, so either can trail the
	// second result: wait.  Three assignments mean task 2 went to the
	// rescuer alone.
	waitFor(t, "the rescue worker to have completed both tasks, each assigned once to it", func() bool {
		for _, ws := range sched.WorkerStats() {
			if ws.Name == "rescue" {
				return ws.Completed == 2 && sched.Stats().Assigned == 3
			}
		}
		return false
	})
	if st := sched.Stats(); st.Assigned != 3 || st.Disconnected != 1 || st.Reassigned != 1 {
		t.Errorf("want task 1 leased to the busy worker and then the rescuer, task 2 to the rescuer only, and one disconnect: %+v", st)
	}
}

// TestDuplicateResultDoesNotInflateStats drives the scheduler with a raw
// hand-rolled worker that answers every assignment twice.  The duplicate
// must be discarded as stale, and Completed + Failed must still equal
// Submitted.
func TestDuplicateResultDoesNotInflateStats(t *testing.T) {
	sched, err := NewScheduler("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	watchBooks(t, sched)
	defer sched.Close()

	conn, err := net.Dial("tcp", sched.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cd := newCodec(conn, &wireCounters{})
	if err := cd.write(&message{Type: wire.TypeRegister, Name: "duplicator"}); err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			m, err := cd.read()
			if err != nil {
				return
			}
			if m.Type != wire.TypeAssign {
				continue // the register ack
			}
			res := &message{Type: wire.TypeResult, TaskID: m.TaskID, Payload: m.Payload}
			_ = cd.write(res)
			_ = cd.write(res) // the duplicate
		}
	}()

	for i := 0; i < 4; i++ {
		if _, err := sched.Submit(context.Background(), json.RawMessage(fmt.Sprintf(`{"i":%d}`, i))); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	// The final duplicate races the final result's delivery; give it a
	// moment to be read and discarded.
	deadline := time.Now().Add(2 * time.Second)
	for {
		st := sched.Stats()
		if st.Stale >= 4 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	st := sched.Stats()
	if st.Submitted != 4 || st.Completed != 4 || st.Failed != 0 {
		t.Errorf("stats inflated by duplicates: %+v", st)
	}
	if st.Completed+st.Failed != st.Submitted {
		t.Errorf("books don't balance: %+v", st)
	}
	if st.Stale != 4 {
		t.Errorf("Stale = %d, want 4", st.Stale)
	}
	if st.Workers != 1 {
		t.Errorf("duplicator dropped from pool: %+v", st)
	}
}

// TestHungHandlerTimesOutWorkerStaysLive verifies the asynchronous worker
// timeout: a handler that ignores its context is abandoned, the failure
// result is reported, and the same worker serves the next task.
func TestHungHandlerTimesOutWorkerStaysLive(t *testing.T) {
	var calls atomic.Int64
	unblock := make(chan struct{})
	handler := func(_ context.Context, payload []byte) ([]byte, error) {
		if calls.Add(1) == 1 {
			<-unblock // ignores ctx entirely
		}
		return payload, nil
	}
	lc, err := NewLocalCluster(1, handler, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	watchBooks(t, lc.Scheduler)
	defer lc.Close()
	defer close(unblock)

	start := time.Now()
	_, err = lc.Scheduler.Submit(context.Background(), json.RawMessage(`{"hang":true}`))
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("hung handler error = %v, want timeout", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Error("timeout did not fire promptly")
	}

	// The worker must still be live for the next task.
	out, err := lc.Scheduler.Submit(context.Background(), json.RawMessage(`{"ok":true}`))
	if err != nil {
		t.Fatalf("worker wedged after hung handler: %v", err)
	}
	if string(out) != `{"ok":true}` {
		t.Errorf("result = %s", out)
	}
}

// goroutinesIn counts the live goroutines with a frame in fn, a prefix
// of a function's full name.
func goroutinesIn(fn string) int {
	n := 0
	for _, g := range strings.Split(allStacks(), "\n\n") {
		if strings.Contains(g, "\n"+fn) {
			n++
		}
	}
	return n
}

// allStacks is every goroutine's stack trace.
func allStacks() string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return string(buf[:n])
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestAbandonedHandlerGetsFreshExecutor: a handler that ignores its
// context keeps the goroutine it runs on when the task times out; the
// next task runs at once on a fresh serving goroutine while the first is
// still stuck, and once the worker is closed and the stuck handler
// returns, no goroutine the worker started is left.
func TestAbandonedHandlerGetsFreshExecutor(t *testing.T) {
	const serving, worker = "repro/internal/cluster.(*Worker).serve", "repro/internal/cluster.(*Worker)."
	// The counts below are of every worker in the process: let an earlier
	// test's closed workers finish exiting first.
	waitFor(t, "earlier tests' worker goroutines to exit", func() bool { return goroutinesIn(worker) == 0 })
	sched, err := NewScheduler("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	settled := watchBooks(t, sched)
	defer sched.Close()

	stuck := make(chan struct{})
	var calls atomic.Int64
	handler := func(_ context.Context, payload []byte) ([]byte, error) {
		if calls.Add(1) == 1 {
			<-stuck // ignores ctx entirely
		}
		return payload, nil
	}
	w, err := NewWorker(sched.Addr(), "abandoner", handler)
	if err != nil {
		t.Fatal(err)
	}
	w.TaskTimeout = 30 * time.Millisecond
	runDone := make(chan error, 1)
	go func() { runDone <- w.Run(context.Background()) }()

	if _, err := sched.Submit(context.Background(), json.RawMessage(`{"n":1}`)); err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("stuck handler: err %v, want a timeout", err)
	}
	out, err := sched.Submit(context.Background(), json.RawMessage(`{"n":2}`))
	if err != nil || string(out) != `{"n":2}` {
		t.Fatalf("task after the abandoned one: %s, %v", out, err)
	}
	settled()
	if n := goroutinesIn(serving); n != 2 {
		t.Errorf("%d serving goroutines while the first handler is stuck, want 2 (the abandoned one and its replacement)", n)
	}

	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	close(stuck)
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after Close")
	}
	for deadline := time.Now().Add(5 * time.Second); goroutinesIn(worker) > 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d worker goroutines outlived the worker", goroutinesIn(worker))
		}
	}
}

// TestVanishedClientDoesNotBlockWorkerReader: submitters that stop
// waiting (their contexts cancelled) while their tasks still run leave
// results nobody will read; those must not stall the worker proxy that
// delivers them, so the next task on that one worker still completes and
// the books balance.
func TestVanishedClientDoesNotBlockWorkerReader(t *testing.T) {
	sched, err := NewScheduler("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	settled := watchBooks(t, sched)
	defer sched.Close()

	gate := make(chan struct{})
	handler := func(_ context.Context, payload []byte) ([]byte, error) {
		if strings.Contains(string(payload), "held") {
			<-gate
		}
		return payload, nil
	}
	w, err := NewWorker(sched.Addr(), "only", handler)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	go func() { _ = w.Run(context.Background()) }()

	const held = 3
	vanish, cancelHeld := context.WithCancel(context.Background())
	gone := make(chan error, held)
	for i := 0; i < held; i++ {
		go func() {
			_, err := sched.Submit(vanish, json.RawMessage(fmt.Sprintf(`{"held":%d}`, i)))
			gone <- err
		}()
	}
	waitFor(t, "the worker to hold a task and the rest to queue", func() bool {
		ws := sched.WorkerStats()
		return len(ws) == 1 && ws[0].InFlight == 1 && sched.Stats().Submitted == held
	})
	cancelHeld()
	for i := 0; i < held; i++ {
		if err := <-gone; !errors.Is(err, context.Canceled) {
			t.Fatalf("abandoned submit: %v, want context.Canceled", err)
		}
	}
	close(gate)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := sched.Submit(ctx, json.RawMessage(`{"next":true}`))
	if err != nil || string(out) != `{"next":true}` {
		t.Fatalf("task after the abandoned submits: %s, %v", out, err)
	}
	// The worker runs tasks in order, but WorkerStats.Completed is bumped
	// after the result is published, so the next task's result can
	// arrive before the count settles: wait for it.
	waitFor(t, "the one worker to complete every task", func() bool {
		ws := sched.WorkerStats()
		return len(ws) == 1 && ws[0].Completed == held+1
	})
	settled()
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestWorkerCancellationIsNotATimeout exercises Worker.execute directly:
// parent-context cancellation (Ctrl-C) must propagate as "no result",
// while a per-task deadline with a live parent must produce a timeout
// failure result.
func TestWorkerCancellationIsNotATimeout(t *testing.T) {
	blocker := func(ctx context.Context, _ []byte) ([]byte, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	// newSession is a worker session over an in-memory connection whose
	// far end the returned codec reads.
	newSession := func(w *Worker) (*session, *codec) {
		near, far := memConnPair()
		t.Cleanup(func() { near.Close() })
		return &session{cd: newCodec(near, &w.wire), done: make(chan struct{})}, newCodec(far, &wireCounters{})
	}

	// Case 1: parent cancelled mid-task → nil (propagate shutdown).
	w := &Worker{Name: "t", Handler: blocker, TaskTimeout: time.Hour}
	s, _ := newSession(w)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if w.execute(ctx, s, &message{Type: wire.TypeAssign, TaskID: "x"}) {
		t.Error("the worker serves on after its context was cancelled")
	}
	if ws := w.Wire(); ws.FramesOut != 0 {
		t.Errorf("cancelled task produced a result frame: %v, want none (propagated shutdown)", ws)
	}

	// Case 2: per-task deadline with live parent → timeout failure result.
	w2 := &Worker{Name: "t2", Handler: blocker, TaskTimeout: 20 * time.Millisecond}
	s2, peer := newSession(w2)
	w2.execute(context.Background(), s2, &message{Type: wire.TypeAssign, TaskID: "y"})
	res, err := peer.read()
	if err != nil || res.Type != wire.TypeResult || !strings.Contains(res.Err, "timed out") {
		t.Errorf("timed-out task result = %+v, %v, want timeout error", res, err)
	}
}

// TestRunReturnsWhileHandlerIgnoresCancellation: cancelling Run's
// context while a handler that ignores it is still running returns Run
// within a second, with and without a task timeout, and the handler's
// later return writes no frame.
func TestRunReturnsWhileHandlerIgnoresCancellation(t *testing.T) {
	for _, timeout := range []time.Duration{0, time.Hour} {
		t.Run(fmt.Sprintf("timeout=%v", timeout), func(t *testing.T) {
			sched, err := NewScheduler("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer sched.Close()

			running, release := make(chan struct{}), make(chan struct{})
			var returned atomic.Bool
			handler := func(_ context.Context, payload []byte) ([]byte, error) {
				close(running)
				<-release // ignores ctx entirely
				returned.Store(true)
				return payload, nil
			}
			w, err := newWorker("ignorer", handler, sched.dial)
			if err != nil {
				t.Fatal(err)
			}
			w.TaskTimeout = timeout
			defer w.Close()
			ctx, cancel := context.WithCancel(context.Background())
			runDone := make(chan error, 1)
			go func() { runDone <- w.Run(ctx) }()

			submitCtx, cancelSubmit := context.WithCancel(context.Background())
			defer cancelSubmit()
			go func() { _, _ = sched.Submit(submitCtx, json.RawMessage(`{"held":true}`)) }()
			<-running

			cancel()
			start := time.Now()
			select {
			case err := <-runDone:
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
			case <-time.After(time.Second):
				close(release)
				t.Fatal("Run did not return within 1s of its context's cancellation")
			}
			t.Logf("Run returned %v after cancellation", time.Since(start))

			workerOut, schedIn := w.Wire(), sched.Wire()
			close(release)
			waitFor(t, "the ignored handler to return", returned.Load)
			// Give the worker's goroutine time to act on the handler's
			// return before looking for the frame it must not write.
			time.Sleep(20 * time.Millisecond)
			if got := w.Wire(); got.FramesOut != workerOut.FramesOut || got.BytesOut != workerOut.BytesOut {
				t.Errorf("worker wrote after shutdown: %v, was %v", got, workerOut)
			}
			if got := sched.Wire(); got.FramesIn != schedIn.FramesIn {
				t.Errorf("scheduler read a frame after the worker shut down: %v, was %v", got, schedIn)
			}
		})
	}
}

// TestNoHeartbeatAfterResult: a worker with Heartbeat set beats for a
// task only while the task is its to answer — no heartbeat frame for a
// task follows that task's result frame, whether the handler answered or
// the task timed out and was abandoned.  The test is the scheduler: it
// assigns one task at a time over an in-memory connection and reads
// every frame the worker writes until the worker closes.
func TestNoHeartbeatAfterResult(t *testing.T) {
	near, far := memConnPair()
	dialed := false
	dial := func() (io.ReadWriteCloser, error) {
		if dialed {
			return nil, errors.New("one connection only")
		}
		dialed = true
		return near, nil
	}
	peer := newCodec(far, &wireCounters{})
	if err := peer.write(&message{Type: wire.TypeRegistered}); err != nil {
		t.Fatal(err)
	}

	stuck := make(chan struct{})
	defer close(stuck)
	handler := func(_ context.Context, payload []byte) ([]byte, error) {
		if string(payload) == "stuck" {
			<-stuck // ignores ctx: abandoned at TaskTimeout
		} else {
			time.Sleep(time.Duration(payload[0]%4) * time.Millisecond)
		}
		return payload, nil
	}
	w, err := newWorker("beater", handler, dial)
	if err != nil {
		t.Fatal(err)
	}
	w.Heartbeat = time.Millisecond
	w.TaskTimeout = 30 * time.Millisecond
	w.MaxReconnects = 1
	if m, err := peer.read(); err != nil || m.Type != wire.TypeRegister {
		t.Fatalf("register frame: %+v, %v", m, err)
	}
	runDone := make(chan error, 1)
	go func() { runDone <- w.Run(context.Background()) }()

	answered := map[string]bool{}
	beats := 0
	// check reads one frame, failing on a heartbeat for an answered task.
	check := func(m *message) {
		switch m.Type {
		case wire.TypeHeartbeat:
			beats++
			if answered[m.TaskID] {
				t.Errorf("heartbeat for task %s after its result", m.TaskID)
			}
		case wire.TypeResult:
			answered[m.TaskID] = true
		}
	}
	payloads := make([][]byte, 0, 41)
	for i := 0; i < 20; i++ {
		payloads = append(payloads, []byte{byte(i)})
	}
	payloads = append(payloads, []byte("stuck"))
	for i := 20; i < 40; i++ {
		payloads = append(payloads, []byte{byte(i)})
	}
	for i, p := range payloads {
		id := fmt.Sprintf("t%d", i)
		if err := peer.write(&message{Type: wire.TypeAssign, TaskID: id, Payload: p}); err != nil {
			t.Fatal(err)
		}
		for !answered[id] {
			m, err := peer.read()
			if err != nil {
				t.Fatalf("reading task %s's frames: %v", id, err)
			}
			check(m)
			if m.Type == wire.TypeResult && m.TaskID == id && string(p) == "stuck" && !strings.Contains(m.Err, "timed out") {
				t.Errorf("stuck task answered %+v, want a timeout", m)
			}
		}
	}
	// Ten more heartbeat periods, then every frame written before Close.
	time.Sleep(10 * time.Millisecond)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for {
		m, err := peer.read()
		if err != nil {
			break
		}
		check(m)
	}
	if beats == 0 {
		t.Error("no heartbeat frames at all: the check saw nothing")
	}
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after Close")
	}
}

// watchBooks polls sched.Stats() from its own goroutine until the test
// ends and fails it on the first snapshot that counts more finished tasks
// than submitted ones.  The returned settled stops the poller and
// requires the books to balance exactly; a test calls it once every
// submitter holds its result.
func watchBooks(t testing.TB, sched *Scheduler) (settled func()) {
	t.Helper()
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			if st := sched.Stats(); st.Completed+st.Failed > st.Submitted {
				t.Errorf("books overdrawn: %+v", st)
				return
			}
			select {
			case <-stop:
				return
			case <-time.After(500 * time.Microsecond):
			}
		}
	}()
	var once sync.Once
	halt := func() { once.Do(func() { close(stop); <-stopped }) }
	t.Cleanup(halt)
	return func() {
		t.Helper()
		halt()
		if st := sched.Stats(); st.Completed+st.Failed != st.Submitted {
			t.Errorf("books don't balance once every result is in: %+v", st)
		}
	}
}

// restartScheduler brings a new scheduler up on the exact address a
// previous one occupied, retrying briefly while the OS releases the port.
// Workers of the old one re-dial it there.
func restartScheduler(t *testing.T, addr string) *Scheduler {
	t.Helper()
	var lastErr error
	for i := 0; i < 100; i++ {
		s, err := NewScheduler(addr)
		if err == nil {
			watchBooks(t, s)
			return s
		}
		lastErr = err
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("could not restart scheduler on %s: %v", addr, lastErr)
	return nil
}

// TestWorkerReconnectsAfterSchedulerRestart bounces the scheduler and
// verifies the worker re-dials with backoff and serves tasks for the new
// incarnation.
func TestWorkerReconnectsAfterSchedulerRestart(t *testing.T) {
	sched, err := NewScheduler("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	watchBooks(t, sched)
	addr := sched.Addr()

	w, err := NewWorker(addr, "phoenix", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	w.ReconnectInitial = 10 * time.Millisecond
	defer w.Close()
	runDone := make(chan error, 1)
	go func() { runDone <- w.Run(context.Background()) }()

	if _, err := sched.Submit(context.Background(), json.RawMessage(`{"gen":1}`)); err != nil {
		t.Fatalf("warm-up submit: %v", err)
	}

	sched.Close()
	sched2 := restartScheduler(t, addr)
	defer sched2.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := sched2.Submit(ctx, json.RawMessage(`{"gen":2}`))
	if err != nil {
		t.Fatalf("submit after scheduler restart: %v", err)
	}
	if string(out) != `{"gen":2}` {
		t.Errorf("result = %s", out)
	}
	select {
	case err := <-runDone:
		t.Fatalf("worker Run exited instead of reconnecting: %v", err)
	default:
	}
}

// TestChaosCutWorkerReconnects cuts the worker↔scheduler link with the
// chaos proxy mid-stream and verifies the worker reconnects (through the
// proxy) and keeps serving.
func TestChaosCutWorkerReconnects(t *testing.T) {
	sched, err := NewScheduler("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	settled := watchBooks(t, sched)
	defer sched.Close()
	proxy := newChaosProxy(t, sched.Addr())

	w, err := NewWorker(proxy.Addr(), "chaotic", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	w.ReconnectInitial = 10 * time.Millisecond
	defer w.Close()
	go func() { _ = w.Run(context.Background()) }()

	if _, err := sched.Submit(context.Background(), json.RawMessage(`{"before":1}`)); err != nil {
		t.Fatalf("submit before cut: %v", err)
	}

	proxy.CutAll()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := sched.Submit(ctx, json.RawMessage(`{"after":1}`))
	if err != nil {
		t.Fatalf("submit after cut: %v", err)
	}
	if string(out) != `{"after":1}` {
		t.Errorf("result = %s", out)
	}
	settled()
}

// TestChaosTruncatedResultFrame slices a worker's result frame in half.
// The scheduler's read fails, the worker proxy dies, the task is requeued,
// and the reconnected worker completes it.
func TestChaosTruncatedResultFrame(t *testing.T) {
	sched, err := NewScheduler("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	settled := watchBooks(t, sched)
	defer sched.Close()
	proxy := newChaosProxy(t, sched.Addr())

	var calls atomic.Int64
	handler := func(_ context.Context, payload []byte) ([]byte, error) {
		calls.Add(1)
		return payload, nil
	}
	w, err := NewWorker(proxy.Addr(), "truncated", handler)
	if err != nil {
		t.Fatal(err)
	}
	w.ReconnectInitial = 10 * time.Millisecond
	defer w.Close()
	go func() { _ = w.Run(context.Background()) }()

	// Wait until the registration frame has fully crossed the proxy, so
	// the truncation budget is spent on the result frame, not on it.
	deadline := time.Now().Add(2 * time.Second)
	for sched.Stats().Workers == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never registered through proxy")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Let the worker's result frame be cut a few bytes in.
	proxy.TruncateAfter(8)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := sched.Submit(ctx, json.RawMessage(`{"x":42}`))
	if err != nil {
		t.Fatalf("submit through truncation: %v", err)
	}
	if string(out) != `{"x":42}` {
		t.Errorf("result = %s", out)
	}
	settled()
	if st := sched.Stats(); st.Reassigned == 0 {
		t.Errorf("truncated frame did not cause a requeue: %+v", st)
	}
	if calls.Load() < 2 {
		t.Errorf("task executed %d times, want >= 2 (original + requeue)", calls.Load())
	}
	if ws := sched.Wire(); ws.DecodeErrors == 0 {
		t.Errorf("mid-frame cut not counted as a decode error: %v", ws)
	}
}

// TestChaosCorruptedFrameDropsConnNotCampaign corrupts a single result
// frame in flight — flipped length prefix or bad magic — and verifies the blast radius is exactly one connection:
// the scheduler counts a decode error and drops the worker connection,
// the worker reconnects, the task is requeued and completes, and the
// submitter only waits a little longer.
func TestChaosCorruptedFrameDropsConnNotCampaign(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func([]byte)
	}{
		{"binary_bad_magic", func(b []byte) { b[0] = 0x00 }},
		{"binary_length_flip", func(b []byte) {
			if len(b) >= wire.HeaderSize {
				binary.BigEndian.PutUint32(b[6:10], 0xFFFFFFFF)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sched, err := NewScheduler("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			settled := watchBooks(t, sched)
			defer sched.Close()
			proxy := newChaosProxy(t, sched.Addr())

			var calls atomic.Int64
			handler := func(_ context.Context, payload []byte) ([]byte, error) {
				calls.Add(1)
				return payload, nil
			}
			w, err := NewWorker(proxy.Addr(), "victim", handler)
			if err != nil {
				t.Fatal(err)
			}
			w.ReconnectInitial = 10 * time.Millisecond
			defer w.Close()
			go func() { _ = w.Run(context.Background()) }()

			deadline := time.Now().Add(2 * time.Second)
			for sched.Stats().Workers == 0 {
				if time.Now().After(deadline) {
					t.Fatal("worker never registered through proxy")
				}
				time.Sleep(2 * time.Millisecond)
			}
			// Corrupt the worker's next frame toward the scheduler — its
			// result for the submission below.
			proxy.MutateNext(tc.corrupt)

			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			out, err := sched.Submit(ctx, json.RawMessage(`{"x":7}`))
			if err != nil {
				t.Fatalf("campaign did not survive a corrupted frame: %v", err)
			}
			if string(out) != `{"x":7}` {
				t.Errorf("result = %s", out)
			}
			if ws := sched.Wire(); ws.DecodeErrors == 0 {
				t.Errorf("corruption not counted as a decode error: %v", ws)
			}
			if calls.Load() < 2 {
				t.Errorf("task executed %d times, want >= 2 (original + requeue after drop)", calls.Load())
			}
			settled()
			// The corruption cost exactly the one connection it arrived on:
			// the worker dialed it and one replacement.
			if ww := w.Wire(); ww.Conns != 2 {
				t.Errorf("worker dialed %d connections, want 2 (the dropped one and its replacement)", ww.Conns)
			}
		})
	}
}

// TestChaosBlackholeLeaseRescue stalls the worker link (bytes vanish, the
// connection stays up) and verifies the lease mechanism hands the task to
// a healthy worker.
func TestChaosBlackholeLeaseRescue(t *testing.T) {
	sched, err := NewScheduler("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	settled := watchBooks(t, sched)
	sched.TaskTimeout = 60 * time.Millisecond
	sched.MaxAttempts = 20 // the stalled proxy may win the requeue race several times
	defer sched.Close()
	proxy := newChaosProxy(t, sched.Addr())

	w, err := NewWorker(proxy.Addr(), "stalled", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	go func() { _ = w.Run(context.Background()) }()

	proxy.SetBlackhole(true) // assignments now vanish en route

	resCh := make(chan error, 1)
	go func() {
		_, err := sched.Submit(context.Background(), json.RawMessage(`{"x":1}`))
		resCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	healthy, err := NewWorker(sched.Addr(), "healthy", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	go func() { _ = healthy.Run(context.Background()) }()

	select {
	case err := <-resCh:
		if err != nil {
			t.Fatalf("task not rescued from blackholed worker: %v", err)
		}
		settled()
	case <-time.After(5 * time.Second):
		t.Fatal("task never rescued from blackholed worker")
	}
}

// clusterEval is a deterministic two-objective evaluator used by the
// end-to-end cut test: pure function of the genome, so re-executed
// (requeued) tasks always reproduce the same fitness.
func clusterEval(_ context.Context, g ea.Genome) (ea.Fitness, error) {
	time.Sleep(time.Millisecond) // stretch the campaign so the cut lands mid-flight
	f0 := g[0]*g[0] + g[1]*g[1]
	f1 := (g[0]-1)*(g[0]-1) + (g[1]-1)*(g[1]-1)
	return ea.Fitness{f0, f1}, nil
}

func cutCampaignConfig(ev ea.Evaluator) nsga2.Config {
	return nsga2.Config{
		PopSize:      12,
		Generations:  4,
		Bounds:       ea.Bounds{{Lo: -2, Hi: 2}, {Lo: -2, Hi: 2}},
		InitialStd:   []float64{0.3, 0.3},
		AnnealFactor: 0.85,
		Evaluator:    ev,
		Pool:         ea.PoolConfig{Parallelism: 6, Objectives: 2},
		Seed:         2023,
	}
}

// paretoSize counts rank-0 members of the final population.
func paretoSize(pop ea.Population) int {
	fronts := nsga2.RankOrdinalSort(pop)
	if len(fronts) == 0 {
		return 0
	}
	return len(fronts[0])
}

// TestWorkerLinksCutMidCampaign is the end-to-end acceptance test: a
// whole NSGA-II campaign runs through the cluster while every worker
// link is cut mid-flight — to the workers, their scheduler vanished.
// Workers reconnect with backoff, the scheduler requeues the generation
// they held, and the campaign finishes with the exact frontier a local
// run produces — no spurious MAXINT failures anywhere.
func TestWorkerLinksCutMidCampaign(t *testing.T) {
	// Reference: the same campaign evaluated in-process.
	ref, err := nsga2.Run(context.Background(), cutCampaignConfig(ea.EvaluatorFunc(clusterEval)))
	if err != nil {
		t.Fatal(err)
	}

	sched, err := NewScheduler("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	settled := watchBooks(t, sched)
	// A requeued task can meet each of the four cut proxies once before
	// they notice: leave it attempts for all of them.
	sched.MaxAttempts = 8
	defer sched.Close()
	proxy := newChaosProxy(t, sched.Addr())

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 4; i++ {
		w, err := NewWorker(proxy.Addr(), fmt.Sprintf("w%d", i), EvalHandler(ea.EvaluatorFunc(clusterEval)))
		if err != nil {
			t.Fatal(err)
		}
		w.ReconnectInitial = 10 * time.Millisecond
		defer w.Close()
		go func() { _ = w.Run(ctx) }()
	}

	// Cut every link once the campaign is under way.
	go func() {
		time.Sleep(60 * time.Millisecond)
		proxy.CutAll()
	}()

	res, err := nsga2.Run(ctx, cutCampaignConfig(&Evaluator{Client: sched}))
	if err != nil {
		t.Fatalf("campaign failed across the cut: %v", err)
	}
	settled()
	if got := res.TotalFailures(); got != 0 {
		t.Errorf("cut campaign recorded %d spurious failures", got)
	}
	if got, want := res.TotalEvaluations(), ref.TotalEvaluations(); got != want {
		t.Errorf("evaluations = %d, want %d", got, want)
	}
	if got, want := paretoSize(res.Final), paretoSize(ref.Final); got != want {
		t.Errorf("frontier size after the cut = %d, want %d (reference run)", got, want)
	}
	for i, ind := range res.Final {
		refInd := ref.Final[i]
		for k := range ind.Fitness {
			if ind.Fitness[k] != refInd.Fitness[k] {
				t.Fatalf("final[%d].Fitness[%d] = %v, want %v", i, k, ind.Fitness[k], refInd.Fitness[k])
			}
		}
	}
}

// TestSchedulerCloseRacesNewConnections closes schedulers while peers are
// still arriving — over TCP and over the in-memory dial — as a connection
// accepted as the listener closes, and a worker whose registration is
// read just as its connection is force-closed.  Every Close must return:
// a handler that starts after the sweep must notice the shutdown itself,
// and a worker proxy that dies before its reader starts must not wait for
// it.  Once Close returns, a dial is refused, and no connection or
// goroutine of the scheduler's is left.
func TestSchedulerCloseRacesNewConnections(t *testing.T) {
	register, err := wire.AppendFrame(nil, &wire.Message{Type: wire.TypeRegister, Name: []byte("late")})
	if err != nil {
		t.Fatal(err)
	}
	// endsEveryPeer: the peer's end of every connection dialed ends with
	// Close.  Not over TCP, where a handshake the kernel completed for a
	// listener that closed before accepting it leaves a silent peer
	// holding a half-open connection the scheduler never saw.
	dials := []struct {
		name          string
		dial          func(s *Scheduler) (io.ReadWriteCloser, error)
		endsEveryPeer bool
	}{
		{"tcp", func(s *Scheduler) (io.ReadWriteCloser, error) { return net.Dial("tcp", s.Addr()) }, false},
		{"mem", (*Scheduler).dial, true},
	}
	for _, kind := range dials {
		t.Run(kind.name, func(t *testing.T) {
			for i := 0; i < 200; i++ {
				sched, err := NewScheduler("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				peers := make(chan io.ReadWriteCloser, 2)
				go func() { // silent peer: dials, never writes
					c, _ := kind.dial(sched)
					peers <- c
				}()
				go func() { // worker that registers as the scheduler goes down
					c, err := kind.dial(sched)
					if err == nil {
						_, _ = c.Write(register)
					}
					peers <- c
				}()
				if i%2 == 1 {
					time.Sleep(time.Duration(i%7) * 50 * time.Microsecond)
				}
				closed := make(chan struct{})
				go func() { sched.Close(); close(closed) }()
				select {
				case <-closed:
				case <-time.After(5 * time.Second):
					t.Fatalf("iteration %d: Scheduler.Close did not return", i)
				}
				if c, err := kind.dial(sched); err == nil {
					c.Close()
					t.Fatalf("iteration %d: a dial after Close succeeded", i)
				}
				sched.connsMu.Lock()
				open := len(sched.conns)
				sched.connsMu.Unlock()
				if open != 0 {
					t.Fatalf("iteration %d: %d connections outlived Close", i, open)
				}
				for k := 0; k < 2; k++ {
					c := <-peers
					if c == nil {
						continue
					}
					if !kind.endsEveryPeer {
						c.Close()
						continue
					}
					drained := make(chan struct{})
					go func() { _, _ = io.Copy(io.Discard, c); close(drained) }()
					select {
					case <-drained:
					case <-time.After(5 * time.Second):
						t.Fatalf("iteration %d: a peer's connection outlived Close", i)
					}
					c.Close()
				}
				waitFor(t, "the scheduler's goroutines to exit", func() bool {
					return goroutinesIn("repro/internal/cluster.(*Scheduler)") == 0
				})
			}
		})
	}
}

// TestCancelledSubmitNoSpuriousFailure pairs with the ea-side fix: a
// campaign abort surfaces as context.Canceled from Submit, which the EA
// records as "unevaluated", not as a MAXINT timeout.
func TestCancelledSubmitNoSpuriousFailure(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	handler := func(_ context.Context, payload []byte) ([]byte, error) {
		<-block
		return payload, nil
	}
	lc, err := NewLocalCluster(2, handler, 0)
	if err != nil {
		t.Fatal(err)
	}
	watchBooks(t, lc.Scheduler)
	defer lc.Close()

	ctx, cancel := context.WithCancel(context.Background())
	pop := ea.Population{
		ea.NewIndividual(ea.Genome{0.1}),
		ea.NewIndividual(ea.Genome{0.2}),
		ea.NewIndividual(ea.Genome{0.3}),
		ea.NewIndividual(ea.Genome{0.4}),
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	out := ea.EvalPool(ctx, ea.Source(pop), len(pop), &Evaluator{Client: lc.Scheduler},
		ea.PoolConfig{Parallelism: 2, Objectives: 2})

	for i, ind := range out {
		if ind.Fitness.IsFailure() {
			t.Errorf("individual %d branded MAXINT failure on campaign abort (err=%v)", i, ind.Err)
		}
		if ind.Evaluated {
			t.Errorf("individual %d marked evaluated after abort", i)
		}
		if ind.Err == nil || !errors.Is(ind.Err, context.Canceled) {
			t.Errorf("individual %d Err = %v, want context.Canceled", i, ind.Err)
		}
	}
}

// TestHeartbeatRenewsLease runs a task longer than the scheduler lease on
// a worker that heartbeats: the lease must be renewed, the task must NOT
// be reassigned, and the books must balance with zero expiries.
func TestHeartbeatRenewsLease(t *testing.T) {
	sched, err := NewScheduler("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	watchBooks(t, sched)
	// Ten heartbeats per lease: a renewal is missed only if the worker
	// stalls for ~135 ms, which a loaded two-core -race run does not do
	// (at 60 ms / 15 ms it did, about once in 150 runs).
	sched.TaskTimeout = 150 * time.Millisecond
	defer sched.Close()

	handler := func(_ context.Context, payload []byte) ([]byte, error) {
		time.Sleep(450 * time.Millisecond) // 3x the lease
		return payload, nil
	}
	w, err := NewWorker(sched.Addr(), "beating", handler)
	if err != nil {
		t.Fatal(err)
	}
	w.Heartbeat = 15 * time.Millisecond
	defer w.Close()
	go func() { _ = w.Run(context.Background()) }()

	out, err := sched.Submit(context.Background(), json.RawMessage(`{"long":true}`))
	if err != nil {
		t.Fatalf("long task failed despite heartbeats: %v", err)
	}
	if string(out) != `{"long":true}` {
		t.Errorf("result = %s", out)
	}
	if st := sched.Stats(); st.Expired != 0 || st.Reassigned != 0 {
		t.Errorf("heartbeated lease expired anyway: %+v", st)
	}
}

// TestBackoffGrowsAndResets pins the backoff schedule's envelope.
func TestBackoffGrowsAndResets(t *testing.T) {
	b := newBackoff(10*time.Millisecond, 80*time.Millisecond)
	b.seed = 1 // deterministic jitter
	prevBase := time.Duration(0)
	for i := 0; i < 6; i++ {
		d := b.next()
		if d <= 0 || d > 80*time.Millisecond {
			t.Fatalf("attempt %d: delay %v out of envelope", i, d)
		}
		if i < 3 && d < prevBase {
			t.Fatalf("attempt %d: delay %v shrank below previous base %v before hitting the cap", i, d, prevBase)
		}
		prevBase = d / 2 // base is at least half the jittered value
	}
	b.reset()
	if d := b.next(); d > 15*time.Millisecond {
		t.Errorf("after reset, delay %v should be near the initial 10ms", d)
	}
}
