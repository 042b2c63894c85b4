package cluster

// Integration tests for the mux session layer inside the cluster plane:
// whole fleets multiplexed over a few TCP connections, mixed fleets
// sharing one port with per-connection peers, and chaos-injected faults
// whose blast radius must stop at the physical connection they hit.

import (
	"context"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// requireBalancedBooks asserts the scheduler's accounting invariant:
// every submitted task resolved exactly once.
func requireBalancedBooks(t *testing.T, s *Scheduler) {
	t.Helper()
	st := s.Stats()
	if st.Completed+st.Failed != st.Submitted {
		t.Fatalf("books unbalanced: completed %d + failed %d != submitted %d",
			st.Completed, st.Failed, st.Submitted)
	}
}

// TestMuxFleetRoundTrip runs a whole local fleet — workers and client —
// over two shared TCP connections and checks results, accounting and
// the mux counters on both endpoints.
func TestMuxFleetRoundTrip(t *testing.T) {
	lc, err := NewLocalCluster(6, echoHandler, 0,
		WithMuxConns(2), WithCoalesce(200*time.Microsecond))
	if err != nil {
		t.Fatalf("local mux cluster: %v", err)
	}
	defer lc.Close()

	payloads := make([]json.RawMessage, 64)
	for i := range payloads {
		payloads[i] = json.RawMessage(fmt.Sprintf(`{"n":%d}`, i))
	}
	for i, r := range submitBatch(context.Background(), lc.Client, payloads) {
		if r.Err != nil {
			t.Fatalf("task %d: %v", i, r.Err)
		}
		if string(r.Payload) != string(payloads[i]) {
			t.Fatalf("task %d: got %s want %s", i, r.Payload, payloads[i])
		}
	}
	requireBalancedBooks(t, lc.Scheduler)

	sm, dm := lc.Scheduler.Mux(), lc.Dialer.Stats()
	if sm.Sessions != 2 || dm.Sessions != 2 {
		t.Fatalf("sessions: scheduler %d, dialer %d, want 2 each", sm.Sessions, dm.Sessions)
	}
	// 6 workers + 1 client, each one logical stream, counted on both ends.
	if sm.Streams != 7 || dm.Streams != 7 {
		t.Fatalf("streams: scheduler %d, dialer %d, want 7 each", sm.Streams, dm.Streams)
	}
	if sm.FramesIn == 0 || sm.FramesOut == 0 || dm.Flushes == 0 {
		t.Fatalf("mux counters did not move: scheduler %+v dialer %+v", sm, dm)
	}
}

// TestMixedFleetOnePort runs mux, plain-binary and JSON workers against
// one scheduler port at the same time: negotiation keys on the first
// bytes of each connection, so all three coexist and every task lands.
func TestMixedFleetOnePort(t *testing.T) {
	sched, err := NewScheduler("127.0.0.1:0")
	if err != nil {
		t.Fatalf("scheduler: %v", err)
	}
	defer sched.Close()

	var muxed, binary, jsonn atomic.Int64
	tag := func(ctr *atomic.Int64) Handler {
		return func(_ context.Context, p json.RawMessage) (json.RawMessage, error) {
			ctr.Add(1)
			time.Sleep(time.Millisecond) // let every worker win some tasks
			return p, nil
		}
	}

	dialer := &MuxDialer{Addr: sched.Addr(), Conns: 1}
	defer dialer.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 2; i++ {
		w, err := NewWorkerMux(dialer, fmt.Sprintf("mux-%d", i), tag(&muxed))
		if err != nil {
			t.Fatalf("mux worker: %v", err)
		}
		defer w.Close()
		go func() { _ = w.Run(ctx) }()
	}
	wb, err := NewWorkerTransport(sched.Addr(), "plain-binary", tag(&binary), TransportBinary)
	if err != nil {
		t.Fatalf("binary worker: %v", err)
	}
	defer wb.Close()
	go func() { _ = wb.Run(ctx) }()
	wj, err := NewWorkerTransport(sched.Addr(), "plain-json", tag(&jsonn), TransportJSON)
	if err != nil {
		t.Fatalf("json worker: %v", err)
	}
	defer wj.Close()
	go func() { _ = wj.Run(ctx) }()

	client, err := NewClient(sched.Addr())
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	defer client.Close()

	payloads := make([]json.RawMessage, 96)
	for i := range payloads {
		payloads[i] = json.RawMessage(fmt.Sprintf(`{"n":%d}`, i))
	}
	for i, r := range submitBatch(context.Background(), client, payloads) {
		if r.Err != nil {
			t.Fatalf("task %d: %v", i, r.Err)
		}
	}
	requireBalancedBooks(t, sched)

	if muxed.Load() == 0 || binary.Load() == 0 || jsonn.Load() == 0 {
		t.Fatalf("not every framing served tasks: mux=%d binary=%d json=%d",
			muxed.Load(), binary.Load(), jsonn.Load())
	}
	ws := sched.Wire()
	if ws.JSONConns == 0 || ws.BinaryConns == 0 {
		t.Fatalf("negotiation counters did not see both framings: %+v", ws)
	}
	if sm := sched.Mux(); sm.Sessions != 1 || sm.Streams != 2 {
		t.Fatalf("mux counters: %+v, want 1 session / 2 streams", sm)
	}
}

// TestChaosCutOneMuxConnBlastRadius is the tentpole fault property: with
// a fleet of logical workers spread over two physical connections,
// cutting one physical connection costs exactly the streams it carried.
// The workers on the cut connection re-dial (lazily re-establishing the
// session), the workers on the surviving connection never notice, and
// the books still balance.
func TestChaosCutOneMuxConnBlastRadius(t *testing.T) {
	sched, err := NewScheduler("127.0.0.1:0")
	if err != nil {
		t.Fatalf("scheduler: %v", err)
	}
	watchBooks(t, sched)
	defer sched.Close()
	sched.TaskTimeout = 2 * time.Second

	proxy := newChaosProxy(t, sched.Addr())
	dialer := &MuxDialer{Addr: proxy.Addr(), Conns: 2}
	defer dialer.Close()

	// Sequential dials land round-robin: workers 0,2 on the first
	// physical connection (chaos pipe 0), workers 1,3 on the second.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workers := make([]*Worker, 4)
	for i := range workers {
		w, err := NewWorkerMux(dialer, fmt.Sprintf("w%d", i), func(_ context.Context, p json.RawMessage) (json.RawMessage, error) {
			time.Sleep(2 * time.Millisecond)
			return p, nil
		})
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		w.ReconnectInitial = 10 * time.Millisecond
		w.ReconnectMax = 100 * time.Millisecond
		defer w.Close()
		workers[i] = w
		go func() { _ = w.Run(ctx) }()
	}
	if got := proxy.PipeCount(); got != 2 {
		t.Fatalf("expected 2 physical connections through the proxy, got %d", got)
	}

	// The client dials the scheduler directly so the cut only concerns
	// worker streams.
	client, err := NewClient(sched.Addr())
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	defer client.Close()

	const tasks = 60
	results := make(chan error, tasks)
	for i := 0; i < tasks; i++ {
		go func(i int) {
			_, err := client.Submit(context.Background(), json.RawMessage(fmt.Sprintf(`{"n":%d}`, i)))
			results <- err
		}(i)
	}

	// Let the campaign get going, then cut the first physical connection.
	time.Sleep(20 * time.Millisecond)
	if !proxy.CutPipe(0) {
		t.Fatal("no pipe to cut")
	}

	for i := 0; i < tasks; i++ {
		if err := <-results; err != nil {
			t.Fatalf("task failed: %v", err)
		}
	}
	requireBalancedBooks(t, sched)

	// Blast radius: exactly the cut connection's workers re-dialed.
	// Each logical dial counts one binary conn in the worker's counters.
	for i, w := range workers {
		dials := w.Wire().BinaryConns
		onCut := i%2 == 0
		if onCut && dials < 2 {
			t.Errorf("worker %d rode the cut connection but never re-dialed (dials=%d)", i, dials)
		}
		if !onCut && dials != 1 {
			t.Errorf("worker %d rode the surviving connection but re-dialed (dials=%d)", i, dials)
		}
	}
}

// TestChaosMuxBlackholeLeaseRescue blackholes the shared mux connection
// mid-task: heartbeats stop arriving, the leases expire, and the tasks
// are rescued by a healthy per-connection worker outside the proxy.
func TestChaosMuxBlackholeLeaseRescue(t *testing.T) {
	sched, err := NewScheduler("127.0.0.1:0")
	if err != nil {
		t.Fatalf("scheduler: %v", err)
	}
	watchBooks(t, sched)
	defer sched.Close()
	sched.TaskTimeout = 150 * time.Millisecond
	sched.MaxAttempts = 20 // a stalled proxy may win the requeue race several times

	proxy := newChaosProxy(t, sched.Addr())
	dialer := &MuxDialer{Addr: proxy.Addr(), Conns: 1}
	defer dialer.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	block := make(chan struct{})
	for i := 0; i < 2; i++ {
		w, err := NewWorkerMux(dialer, fmt.Sprintf("doomed-%d", i), func(ctx context.Context, p json.RawMessage) (json.RawMessage, error) {
			// Hold the task until the test finishes: the rescue must come
			// from reassignment, not from this worker completing late.
			select {
			case <-block:
			case <-ctx.Done():
			}
			return p, nil
		})
		if err != nil {
			t.Fatalf("mux worker: %v", err)
		}
		defer w.Close()
		go func() { _ = w.Run(ctx) }()
	}
	defer close(block)

	client, err := NewClient(sched.Addr())
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	defer client.Close()

	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			_, err := client.Submit(context.Background(), json.RawMessage(fmt.Sprintf(`{"n":%d}`, i)))
			done <- err
		}(i)
	}
	// Give the doomed workers time to take the leases, then stall the
	// shared connection and bring in the rescuer.
	time.Sleep(50 * time.Millisecond)
	proxy.SetBlackhole(true)
	healthy, err := NewWorker(sched.Addr(), "healthy", echoHandler)
	if err != nil {
		t.Fatalf("healthy worker: %v", err)
	}
	defer healthy.Close()
	go func() { _ = healthy.Run(ctx) }()

	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("task not rescued: %v", err)
		}
	}
	if st := sched.Stats(); st.Expired == 0 {
		t.Fatalf("expected expired leases during the blackhole, got %+v", st)
	}
	requireBalancedBooks(t, sched)
}

// TestChaosMuxCorruptFrameKillsOnlyThatSession flips the first byte of a
// toward-scheduler chunk — a mux frame header — which must fail that
// whole session (framing is unrecoverable) but nothing else: the workers
// re-dial and the campaign completes with balanced books.
func TestChaosMuxCorruptFrameKillsOnlyThatSession(t *testing.T) {
	sched, err := NewScheduler("127.0.0.1:0")
	if err != nil {
		t.Fatalf("scheduler: %v", err)
	}
	watchBooks(t, sched)
	defer sched.Close()
	sched.TaskTimeout = 2 * time.Second

	proxy := newChaosProxy(t, sched.Addr())
	dialer := &MuxDialer{Addr: proxy.Addr(), Conns: 1}
	defer dialer.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 2; i++ {
		w, err := NewWorkerMux(dialer, fmt.Sprintf("w%d", i), func(_ context.Context, p json.RawMessage) (json.RawMessage, error) {
			time.Sleep(2 * time.Millisecond)
			return p, nil
		})
		if err != nil {
			t.Fatalf("worker: %v", err)
		}
		w.ReconnectInitial = 10 * time.Millisecond
		w.ReconnectMax = 100 * time.Millisecond
		defer w.Close()
		go func() { _ = w.Run(ctx) }()
	}
	client, err := NewClient(sched.Addr())
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	defer client.Close()

	const tasks = 40
	results := make(chan error, tasks)
	for i := 0; i < tasks; i++ {
		go func(i int) {
			_, err := client.Submit(context.Background(), json.RawMessage(fmt.Sprintf(`{"n":%d}`, i)))
			results <- err
		}(i)
	}
	time.Sleep(15 * time.Millisecond)
	// Chunks begin at flush boundaries, so byte 0 is a frame header's
	// magic byte: guaranteed decode failure, session teardown.
	proxy.MutateNext(func(b []byte) { b[0] ^= 0xFF })

	for i := 0; i < tasks; i++ {
		if err := <-results; err != nil {
			t.Fatalf("task failed: %v", err)
		}
	}
	requireBalancedBooks(t, sched)
	if sched.Wire().DecodeErrors == 0 && sched.Mux().Sessions < 2 {
		t.Fatalf("corruption left no trace: wire=%+v mux=%+v", sched.Wire(), sched.Mux())
	}
}

// TestChaosMuxDelay adds latency to every chunk on the shared connection
// and requires the campaign to complete anyway — coalescing and flow
// control must degrade gracefully, not deadlock, on a slow link.
func TestChaosMuxDelay(t *testing.T) {
	sched, err := NewScheduler("127.0.0.1:0")
	if err != nil {
		t.Fatalf("scheduler: %v", err)
	}
	watchBooks(t, sched)
	defer sched.Close()

	proxy := newChaosProxy(t, sched.Addr())
	proxy.SetDelay(time.Millisecond)
	dialer := &MuxDialer{Addr: proxy.Addr(), Conns: 1, Coalesce: 200 * time.Microsecond}
	defer dialer.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 3; i++ {
		w, err := NewWorkerMux(dialer, fmt.Sprintf("w%d", i), echoHandler)
		if err != nil {
			t.Fatalf("worker: %v", err)
		}
		defer w.Close()
		go func() { _ = w.Run(ctx) }()
	}
	client, err := NewClientMux(dialer)
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	defer client.Close()

	payloads := make([]json.RawMessage, 24)
	for i := range payloads {
		payloads[i] = json.RawMessage(fmt.Sprintf(`{"n":%d}`, i))
	}
	for i, r := range submitBatch(context.Background(), client, payloads) {
		if r.Err != nil {
			t.Fatalf("task %d: %v", i, r.Err)
		}
	}
	requireBalancedBooks(t, sched)
}
