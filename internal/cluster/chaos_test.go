package cluster

// This file is the fault-injection harness for the evaluation plane: a
// deterministic chaos TCP proxy that can cut, blackhole, corrupt and
// truncate traffic between peers and the scheduler, plus the failure-path
// tests that exercise every recovery mechanism — lease expiry, stale
// result discard, duplicate accounting, asynchronous task timeout, worker
// and client reconnection, and a full scheduler bounce mid-campaign.
// Faults are driven explicitly from the tests (no randomness), so each
// recovery path is reproduced on every run.

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
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

// TestLeaseExpiryKeepsSlowWorkerAlive is the headline bugfix test: a task
// that exceeds the scheduler lease is reassigned to another worker, the
// slow worker's late result is discarded as stale, and the slow worker
// keeps serving subsequent tasks instead of being written off.
func TestLeaseExpiryKeepsSlowWorkerAlive(t *testing.T) {
	sched, err := NewScheduler("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	watchBooks(t, sched)
	sched.TaskTimeout = 80 * time.Millisecond
	sched.MaxAttempts = 10
	defer sched.Close()

	var slowCalls, slowServed atomic.Int64
	slowHandler := func(_ context.Context, payload json.RawMessage) (json.RawMessage, error) {
		if slowCalls.Add(1) == 1 {
			time.Sleep(300 * time.Millisecond) // ignores ctx: the classic slow training
		}
		slowServed.Add(1)
		return payload, nil
	}
	slow, err := NewWorker(sched.Addr(), "slow", slowHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	go func() { _ = slow.Run(context.Background()) }()

	client, err := NewClient(sched.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Submit while only the slow worker is connected, so it must take the
	// first task.
	resCh := make(chan error, 1)
	go func() {
		_, err := client.Submit(context.Background(), json.RawMessage(`{"first":true}`))
		resCh <- err
	}()
	time.Sleep(30 * time.Millisecond) // let the slow worker take the task

	rescue, err := NewWorker(sched.Addr(), "rescue", echoHandler)
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

	// Let the slow worker finish its abandoned task and send the stale
	// result.
	time.Sleep(350 * time.Millisecond)

	// Kill the rescuer so subsequent tasks can only be served by the slow
	// worker — proving it was never dropped from the pool.
	rescue.Close()
	time.Sleep(20 * time.Millisecond)
	for i := 0; i < 3; i++ {
		if _, err := client.Submit(context.Background(), json.RawMessage(fmt.Sprintf(`{"i":%d}`, i))); err != nil {
			t.Fatalf("slow worker no longer serving task %d: %v", i, err)
		}
	}

	st := sched.Stats()
	if st.Expired == 0 {
		t.Errorf("no lease expiry recorded: %+v", st)
	}
	if st.Stale == 0 {
		t.Errorf("stale result not recorded: %+v", st)
	}
	if st.Completed+st.Failed != st.Submitted {
		t.Errorf("books don't balance: %+v", st)
	}
	if got := slowServed.Load(); got < 3 {
		t.Errorf("slow worker served %d tasks after lease expiry, want >= 3", got)
	}
	found := false
	for _, ws := range sched.WorkerStats() {
		if ws.Name == "slow" {
			found = true
			if ws.Expired == 0 {
				t.Errorf("per-worker expiry not recorded: %+v", ws)
			}
		}
	}
	if !found {
		t.Error("slow worker missing from WorkerStats — it was dropped")
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
			res := &message{Type: wire.TypeResult, TaskID: m.TaskID, Payload: m.Payload}
			_ = cd.write(res)
			_ = cd.write(res) // the duplicate
		}
	}()

	client, err := NewClient(sched.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	for i := 0; i < 4; i++ {
		if _, err := client.Submit(context.Background(), json.RawMessage(fmt.Sprintf(`{"i":%d}`, i))); err != nil {
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
	handler := func(_ context.Context, payload json.RawMessage) (json.RawMessage, error) {
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
	_, err = lc.Client.Submit(context.Background(), json.RawMessage(`{"hang":true}`))
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("hung handler error = %v, want timeout", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Error("timeout did not fire promptly")
	}

	// The worker must still be live for the next task.
	out, err := lc.Client.Submit(context.Background(), json.RawMessage(`{"ok":true}`))
	if err != nil {
		t.Fatalf("worker wedged after hung handler: %v", err)
	}
	if string(out) != `{"ok":true}` {
		t.Errorf("result = %s", out)
	}
}

// goroutineID is the calling goroutine's id, read off its stack header.
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	id, _, _ := strings.Cut(strings.TrimPrefix(string(buf), "goroutine "), " ")
	return id
}

// executorsOf counts the live executor goroutines started by goroutine
// id (a worker's Run goroutine).
func executorsOf(id string) int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "created by repro/internal/cluster.newExecutor in goroutine "+id+"\n")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestAbandonedHandlerGetsFreshExecutor: a handler that ignores its
// context keeps its executor when the task times out; the next task runs
// at once on a fresh executor while the first is still stuck, and once
// the worker is closed and the stuck handler returns, no goroutine the
// worker started is left.
func TestAbandonedHandlerGetsFreshExecutor(t *testing.T) {
	sched, err := NewScheduler("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	settled := watchBooks(t, sched)
	defer sched.Close()

	stuck := make(chan struct{})
	var calls atomic.Int64
	handler := func(_ context.Context, payload json.RawMessage) (json.RawMessage, error) {
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
	runID, runDone := make(chan string, 1), make(chan error, 1)
	go func() {
		runID <- goroutineID()
		runDone <- w.Run(context.Background())
	}()
	id := <-runID
	client, err := NewClient(sched.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if _, err := client.Submit(context.Background(), json.RawMessage(`{"n":1}`)); err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("stuck handler: err %v, want a timeout", err)
	}
	out, err := client.Submit(context.Background(), json.RawMessage(`{"n":2}`))
	if err != nil || string(out) != `{"n":2}` {
		t.Fatalf("task after the abandoned one: %s, %v", out, err)
	}
	settled()
	if n := executorsOf(id); n != 2 {
		t.Errorf("%d executors while the first handler is stuck, want 2 (the abandoned one and its replacement)", n)
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
	for deadline := time.Now().Add(5 * time.Second); executorsOf(id) > 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d executor goroutines outlived the worker", executorsOf(id))
		}
	}
}

// TestVanishedClientDoesNotBlockWorkerReader: a client that disconnects
// while its tasks are still running leaves results nobody will read; they
// must not stall the worker proxy that delivers them, so the next task
// on that one worker still completes and the books balance.
func TestVanishedClientDoesNotBlockWorkerReader(t *testing.T) {
	sched, err := NewScheduler("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	settled := watchBooks(t, sched)
	defer sched.Close()

	gate := make(chan struct{})
	handler := func(_ context.Context, payload json.RawMessage) (json.RawMessage, error) {
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

	conn, err := net.Dial("tcp", sched.Addr())
	if err != nil {
		t.Fatal(err)
	}
	cd := newCodec(conn, &wireCounters{})
	const held = 3
	for i := 0; i < held; i++ {
		m := &message{Type: wire.TypeSubmit, TaskID: fmt.Sprintf("held-%d", i), Payload: json.RawMessage(fmt.Sprintf(`{"held":%d}`, i))}
		if err := cd.write(m); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "the worker to hold a task", func() bool {
		ws := sched.WorkerStats()
		return len(ws) == 1 && ws[0].InFlight == 1
	})
	conn.Close()
	waitFor(t, "the client connection to be gone", func() bool {
		sched.connsMu.Lock()
		defer sched.connsMu.Unlock()
		return len(sched.conns) == 1 // the worker's
	})
	close(gate)

	client, err := NewClient(sched.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := client.Submit(ctx, json.RawMessage(`{"next":true}`))
	if err != nil || string(out) != `{"next":true}` {
		t.Fatalf("task after the vanished client: %s, %v", out, err)
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
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()

	blocker := func(ctx context.Context, _ json.RawMessage) (json.RawMessage, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}

	// Case 1: parent cancelled mid-task → nil (propagate shutdown).
	w := &Worker{Name: "t", Handler: blocker, TaskTimeout: time.Hour}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if res := w.execute(ctx, newCodec(a, &w.wire), &message{Type: wire.TypeAssign, TaskID: "x"}); res != nil {
		t.Errorf("cancelled task produced result %+v, want nil (propagated shutdown)", res)
	}

	// Case 2: per-task deadline with live parent → timeout failure result.
	w2 := &Worker{Name: "t2", Handler: blocker, TaskTimeout: 20 * time.Millisecond}
	res := w2.execute(context.Background(), newCodec(a, &w2.wire), &message{Type: wire.TypeAssign, TaskID: "y"})
	if res == nil || !strings.Contains(res.Err, "timed out") {
		t.Errorf("timed-out task result = %+v, want timeout error", res)
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

	c1, err := NewClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Submit(context.Background(), json.RawMessage(`{"gen":1}`)); err != nil {
		t.Fatalf("warm-up submit: %v", err)
	}
	c1.Close()

	sched.Close()
	sched2 := restartScheduler(t, addr)
	defer sched2.Close()

	c2, err := NewClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := c2.Submit(ctx, json.RawMessage(`{"gen":2}`))
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

	client, err := NewClient(sched.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if _, err := client.Submit(context.Background(), json.RawMessage(`{"before":1}`)); err != nil {
		t.Fatalf("submit before cut: %v", err)
	}

	proxy.CutAll()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := client.Submit(ctx, json.RawMessage(`{"after":1}`))
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
	handler := func(_ context.Context, payload json.RawMessage) (json.RawMessage, error) {
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

	client, err := NewClient(sched.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

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
	out, err := client.Submit(ctx, json.RawMessage(`{"x":42}`))
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
// untouched client connection never notices.
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
			handler := func(_ context.Context, payload json.RawMessage) (json.RawMessage, error) {
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

			client, err := NewClient(sched.Addr()) // direct, unproxied
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()

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
			out, err := client.Submit(ctx, json.RawMessage(`{"x":7}`))
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
			// Exactly one client connection was ever dialed: the corruption
			// cost the worker's connection, nobody else's.
			cw := client.Wire()
			if cw.Conns != 1 {
				t.Errorf("client dialed %d connections, want 1 (its connection must survive)", cw.Conns)
			}
		})
	}
}

// TestChaosClientReconnectResubmits cuts the client↔scheduler link while
// a task is in flight; the client must reconnect and resubmit it.
func TestChaosClientReconnectResubmits(t *testing.T) {
	sched, err := NewScheduler("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	watchBooks(t, sched)
	defer sched.Close()
	proxy := newChaosProxy(t, sched.Addr())

	release := make(chan struct{})
	var once sync.Once
	handler := func(_ context.Context, payload json.RawMessage) (json.RawMessage, error) {
		once.Do(func() { <-release }) // hold the first execution until the cut happened
		return payload, nil
	}
	w, err := NewWorker(sched.Addr(), "steady", handler)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	go func() { _ = w.Run(context.Background()) }()

	client, err := NewClient(proxy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	client.ReconnectInitial = 10 * time.Millisecond
	defer client.Close()

	resCh := make(chan error, 1)
	go func() {
		_, err := client.Submit(context.Background(), json.RawMessage(`{"inflight":1}`))
		resCh <- err
	}()
	time.Sleep(30 * time.Millisecond) // task is now in flight
	proxy.CutAll()
	close(release)

	select {
	case err := <-resCh:
		if err != nil {
			t.Fatalf("in-flight task lost across client reconnect: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight task never completed after reconnect")
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

	client, err := NewClient(sched.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	proxy.SetBlackhole(true) // assignments now vanish en route

	resCh := make(chan error, 1)
	go func() {
		_, err := client.Submit(context.Background(), json.RawMessage(`{"x":1}`))
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
// end-to-end bounce test: pure function of the genome, so re-executed
// (resubmitted) tasks always reproduce the same fitness.
func clusterEval(_ context.Context, g ea.Genome) (ea.Fitness, error) {
	time.Sleep(time.Millisecond) // stretch the campaign so the bounce lands mid-flight
	f0 := g[0]*g[0] + g[1]*g[1]
	f1 := (g[0]-1)*(g[0]-1) + (g[1]-1)*(g[1]-1)
	return ea.Fitness{f0, f1}, nil
}

func bounceCampaignConfig(ev ea.Evaluator) nsga2.Config {
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

// TestSchedulerBounceMidCampaign is the end-to-end acceptance test: a
// whole NSGA-II campaign runs through the cluster while the scheduler is
// killed and restarted mid-flight.  Workers reconnect with backoff, the
// client resubmits its in-flight generation, and the campaign finishes
// with the exact frontier a local run produces — no spurious MAXINT
// failures anywhere.
func TestSchedulerBounceMidCampaign(t *testing.T) {
	// Reference: the same campaign evaluated in-process.
	ref, err := nsga2.Run(context.Background(), bounceCampaignConfig(ea.EvaluatorFunc(clusterEval)))
	if err != nil {
		t.Fatal(err)
	}

	t.Run("binary", func(t *testing.T) {
		sched, err := NewScheduler("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		watchBooks(t, sched)
		addr := sched.Addr()

		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		var workers []*Worker
		for i := 0; i < 4; i++ {
			w, err := NewWorker(addr, fmt.Sprintf("w%d", i), EvalHandler(ea.EvaluatorFunc(clusterEval)))
			if err != nil {
				t.Fatal(err)
			}
			w.ReconnectInitial = 10 * time.Millisecond
			workers = append(workers, w)
			go func() { _ = w.Run(ctx) }()
		}
		defer func() {
			for _, w := range workers {
				w.Close()
			}
		}()

		client, err := NewClient(addr)
		if err != nil {
			t.Fatal(err)
		}
		client.ReconnectInitial = 10 * time.Millisecond
		client.MaxReconnects = 200
		defer client.Close()

		// Bounce the scheduler once the campaign is under way.
		bounced := make(chan *Scheduler, 1)
		go func() {
			time.Sleep(60 * time.Millisecond)
			sched.Close()
			bounced <- restartScheduler(t, addr)
		}()

		res, err := nsga2.Run(ctx, bounceCampaignConfig(&Evaluator{Client: client}))
		if err != nil {
			t.Fatalf("campaign failed across scheduler bounce: %v", err)
		}
		sched2 := <-bounced
		defer sched2.Close()

		if got := res.TotalFailures(); got != 0 {
			t.Errorf("bounced campaign recorded %d spurious failures", got)
		}
		if got, want := res.TotalEvaluations(), ref.TotalEvaluations(); got != want {
			t.Errorf("evaluations = %d, want %d", got, want)
		}
		if got, want := paretoSize(res.Final), paretoSize(ref.Final); got != want {
			t.Errorf("frontier size after bounce = %d, want %d (reference run)", got, want)
		}
		for i, ind := range res.Final {
			refInd := ref.Final[i]
			for k := range ind.Fitness {
				if ind.Fitness[k] != refInd.Fitness[k] {
					t.Fatalf("final[%d].Fitness[%d] = %v, want %v", i, k, ind.Fitness[k], refInd.Fitness[k])
				}
			}
		}
	})
}

// TestSchedulerCloseRacesNewConnections closes schedulers while peers are
// still arriving — a connection accepted as the listener closes, and a
// worker whose registration is read just as its connection is
// force-closed — and requires every Close to return: a handler that
// starts after the sweep must notice the shutdown itself, and a worker
// proxy that dies before its reader starts must not wait for it.
func TestSchedulerCloseRacesNewConnections(t *testing.T) {
	register, err := wire.AppendFrame(nil, &wire.Message{Type: wire.TypeRegister, Name: []byte("late"), Flags: wire.FlagWantSnapshot})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		sched, err := NewScheduler("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := sched.Addr()
		peers := make(chan net.Conn, 2)
		go func() { // silent peer: dials, never writes
			c, _ := net.Dial("tcp", addr)
			peers <- c
		}()
		go func() { // worker that registers as the scheduler goes down
			c, err := net.Dial("tcp", addr)
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
		for k := 0; k < 2; k++ {
			if c := <-peers; c != nil {
				c.Close()
			}
		}
	}
}

// TestCancelledSubmitNoSpuriousFailure pairs with the ea-side fix: a
// campaign abort surfaces as context.Canceled from Submit, which the EA
// records as "unevaluated", not as a MAXINT timeout.
func TestCancelledSubmitNoSpuriousFailure(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	handler := func(_ context.Context, payload json.RawMessage) (json.RawMessage, error) {
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
	out := ea.EvalPool(ctx, ea.Source(pop), len(pop), &Evaluator{Client: lc.Client},
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

// TestEventHookAndWorkerStats sanity-checks the observability surface:
// connect/assign/result events fire and per-worker counters accumulate.
func TestEventHookAndWorkerStats(t *testing.T) {
	sched, err := NewScheduler("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	watchBooks(t, sched)
	var mu sync.Mutex
	seen := map[EventType]int{}
	sched.OnEvent = func(e Event) {
		mu.Lock()
		seen[e.Type]++
		mu.Unlock()
		if e.String() == "" {
			t.Error("empty event string")
		}
	}
	defer sched.Close()

	w, err := NewWorker(sched.Addr(), "observed", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	go func() { _ = w.Run(context.Background()) }()

	client, err := NewClient(sched.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for i := 0; i < 5; i++ {
		if _, err := client.Submit(context.Background(), json.RawMessage(`{}`)); err != nil {
			t.Fatal(err)
		}
	}

	// The assign event fires after the task is written to the worker, on
	// the dispatching goroutine, and the result event (after the worker's
	// counters) once the result is queued for the client: the fifth result
	// can be back with the client before either event is out.
	for i := 0; i < 2000; i++ {
		mu.Lock()
		n := min(seen[EventAssign], seen[EventResult])
		mu.Unlock()
		if n >= 5 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if seen[EventWorkerConnect] == 0 || seen[EventAssign] < 5 || seen[EventResult] < 5 {
		t.Errorf("events missing: %+v", seen)
	}
	ws := sched.WorkerStats()
	if len(ws) != 1 || ws[0].Name != "observed" || ws[0].Completed != 5 {
		t.Errorf("WorkerStats = %+v", ws)
	}
	if !strings.Contains(ws[0].String(), "completed=5") {
		t.Errorf("WorkerStats.String() = %q", ws[0].String())
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

	handler := func(_ context.Context, payload json.RawMessage) (json.RawMessage, error) {
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

	client, err := NewClient(sched.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	out, err := client.Submit(context.Background(), json.RawMessage(`{"long":true}`))
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
