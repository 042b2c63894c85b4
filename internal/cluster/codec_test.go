package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster/wire"
)

// TestParseTransport pins the flag-value surface.
func TestParseTransport(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Transport
	}{{"binary", TransportBinary}, {"json", TransportJSON}} {
		got, err := ParseTransport(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseTransport(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if got.String() != tc.in {
			t.Errorf("%v.String() = %q, want %q", got, got.String(), tc.in)
		}
	}
	if _, err := ParseTransport("msgpack"); err == nil {
		t.Error("ParseTransport accepted an unknown transport")
	}
}

// TestTransportNegotiationMixedFleet runs binary and JSON workers and
// clients against one scheduler at the same time.  The scheduler peeks
// the first byte of each connection and speaks whichever framing the
// peer chose, so a mixed fleet interoperates without configuration.
func TestTransportNegotiationMixedFleet(t *testing.T) {
	sched, err := NewScheduler("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i, tr := range []Transport{TransportBinary, TransportJSON} {
		w, err := NewWorkerTransport(sched.Addr(), fmt.Sprintf("worker-%v", tr), echoHandler, tr)
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		defer w.Close()
		go func() { _ = w.Run(ctx) }()
	}

	for _, tr := range []Transport{TransportBinary, TransportJSON} {
		client, err := NewClientTransport(sched.Addr(), tr)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			payload := json.RawMessage(fmt.Sprintf(`{"via":"%v","i":%d}`, tr, i))
			out, err := client.Submit(ctx, payload)
			if err != nil {
				t.Fatalf("submit via %v: %v", tr, err)
			}
			if string(out) != string(payload) {
				t.Errorf("result via %v = %s, want %s", tr, out, payload)
			}
		}
		cw := client.Wire()
		if cw.FramesOut < 4 || cw.FramesIn < 4 {
			t.Errorf("client %v frame counters did not move: %v", tr, cw)
		}
		client.Close()
	}

	ws := sched.Wire()
	// One binary worker + one binary client, one JSON worker + one JSON
	// client.
	if ws.BinaryConns != 2 || ws.JSONConns != 2 {
		t.Errorf("negotiated conns = %d binary, %d json; want 2 and 2 (%v)", ws.BinaryConns, ws.JSONConns, ws)
	}
	if ws.DecodeErrors != 0 {
		t.Errorf("spurious decode errors on healthy links: %v", ws)
	}
	if ws.FramesIn == 0 || ws.FramesOut == 0 || ws.BytesIn == 0 || ws.BytesOut == 0 {
		t.Errorf("scheduler wire counters did not move: %v", ws)
	}
}

// TestMixedFleetOnePort runs binary and JSON workers against one
// scheduler port under a concurrent batch: negotiation keys on the first
// bytes of each connection, so both framings compete for the same queue,
// each serves some of the tasks, and every task lands exactly once.
func TestMixedFleetOnePort(t *testing.T) {
	sched, err := NewScheduler("127.0.0.1:0")
	if err != nil {
		t.Fatalf("scheduler: %v", err)
	}
	defer sched.Close()

	var binary, jsonn atomic.Int64
	tag := func(ctr *atomic.Int64) Handler {
		return func(_ context.Context, p json.RawMessage) (json.RawMessage, error) {
			ctr.Add(1)
			time.Sleep(time.Millisecond) // let every worker win some tasks
			return p, nil
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
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
		if string(r.Payload) != string(payloads[i]) {
			t.Fatalf("task %d: got %s want %s", i, r.Payload, payloads[i])
		}
	}
	if st := sched.Stats(); st.Completed+st.Failed != st.Submitted {
		t.Fatalf("books unbalanced: completed %d + failed %d != submitted %d",
			st.Completed, st.Failed, st.Submitted)
	}

	if binary.Load() == 0 || jsonn.Load() == 0 {
		t.Fatalf("not every framing served tasks: binary=%d json=%d",
			binary.Load(), jsonn.Load())
	}
	if ws := sched.Wire(); ws.JSONConns == 0 || ws.BinaryConns == 0 {
		t.Fatalf("negotiation counters did not see both framings: %+v", ws)
	}
}

// TestSnapshotCatchUpMidCampaign is the late-joiner acceptance test: a
// worker registering mid-campaign receives one compact snapshot frame —
// campaign epoch, queue depth, outstanding leases — instead of any
// history replay, and immediately serves the backlog.
func TestSnapshotCatchUpMidCampaign(t *testing.T) {
	sched, err := NewScheduler("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()

	// The first worker takes one task and holds it, pinning one lease
	// outstanding and leaving the rest of the campaign queued.
	block := make(chan struct{})
	defer close(block)
	var first sync.Once
	holdFirst := func(_ context.Context, payload json.RawMessage) (json.RawMessage, error) {
		held := false
		first.Do(func() { held = true })
		if held {
			<-block
		}
		return payload, nil
	}
	holder, err := NewWorker(sched.Addr(), "holder", holdFirst)
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() { _ = holder.Run(ctx) }()

	// A worker joining an idle scheduler still gets a snapshot — an empty
	// one.
	if snap, ok := holder.Snapshot(); !ok || snap.Epoch != 0 || len(snap.Leases) != 0 {
		t.Errorf("idle-join snapshot = %+v, %v; want empty snapshot", snap, ok)
	}

	client, err := NewClient(sched.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	results := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func(i int) {
			_, err := client.Submit(ctx, json.RawMessage(fmt.Sprintf(`{"task":%d}`, i)))
			results <- err
		}(i)
	}

	// Wait until the campaign is in the exact mid-flight shape: three
	// submissions on the books, one leased to the holder, two queued.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := sched.Stats()
		inflight := 0
		for _, ws := range sched.WorkerStats() {
			inflight += ws.InFlight
		}
		if st.Submitted == 3 && inflight == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign never reached mid-flight shape: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}

	late, err := NewWorker(sched.Addr(), "late", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()

	snap, ok := late.Snapshot()
	if !ok {
		t.Fatal("late joiner received no snapshot")
	}
	if snap.Epoch != 3 {
		t.Errorf("snapshot epoch = %d, want 3 (tasks submitted before join)", snap.Epoch)
	}
	if snap.Pending != 2 {
		t.Errorf("snapshot pending = %d, want 2 (queued tasks at join)", snap.Pending)
	}
	if len(snap.Leases) != 1 {
		t.Errorf("snapshot leases = %v, want exactly the holder's one", snap.Leases)
	}

	go func() { _ = late.Run(ctx) }()

	// The late joiner drains the two queued tasks; releasing the holder
	// completes the third.
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("task %d failed after late join: %v", i, err)
		}
	}
	// Catch-up cost is O(1) frames, not O(history): the late worker has
	// received exactly its snapshot plus one assign per task it served.
	if lw := late.Wire(); lw.FramesIn > 3 {
		t.Errorf("late joiner received %d frames for 2 tasks; want <= 3 (snapshot + assigns, no replay)", lw.FramesIn)
	}
	block <- struct{}{}
	if err := <-results; err != nil {
		t.Fatalf("held task failed: %v", err)
	}
}

// TestUnknownRegisterFlagsRefused: a register frame carrying any flag
// bit besides flagWantSnapshot (bit 1 was the retired multiplexing
// hello) is refused, not served as a phantom worker that would lose the
// task it is handed.  The scheduler closes the connection without
// registering it or assigning it anything, and a normal worker then
// serves the queued task with balanced books.
func TestUnknownRegisterFlagsRefused(t *testing.T) {
	sched, err := NewScheduler("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var assigned []string
	sched.OnEvent = func(e Event) {
		if e.Type == EventAssign {
			mu.Lock()
			assigned = append(assigned, e.Worker)
			mu.Unlock()
		}
	}
	settled := watchBooks(t, sched)
	defer sched.Close()

	client, err := NewClient(sched.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	result := make(chan error, 1)
	go func() {
		_, err := client.Submit(ctx, json.RawMessage(`{"queued":true}`))
		result <- err
	}()
	waitFor(t, "the task to be queued", func() bool { return sched.Stats().Submitted == 1 })

	conn, err := net.Dial("tcp", sched.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame, err := wire.AppendFrame(nil, &wire.Message{Type: wire.TypeRegister, Flags: 1 << 1, Name: []byte("stale-peer")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if n, err := conn.Read(make([]byte, 64)); err != io.EOF {
		t.Fatalf("register with unknown flags: read %d bytes, err %v; want the connection closed", n, err)
	}
	if w := sched.Stats().Workers; w != 0 {
		t.Fatalf("register with unknown flags left %d workers registered, want 0", w)
	}

	w, err := NewWorker(sched.Addr(), "normal", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	go func() { _ = w.Run(ctx) }()
	if err := <-result; err != nil {
		t.Fatalf("queued task after the refused register: %v", err)
	}
	settled()
	// The assign event fires after the frame is written, so it can trail
	// the result.
	waitFor(t, "the assign event", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(assigned) > 0
	})
	mu.Lock()
	defer mu.Unlock()
	if len(assigned) != 1 || assigned[0] != "normal" {
		t.Errorf("assignments went to %q, want only the normal worker", assigned)
	}
}
