package cluster

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/cluster/wire"
)

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

	results := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func(i int) {
			_, err := sched.Submit(ctx, json.RawMessage(fmt.Sprintf(`{"task":%d}`, i)))
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

// TestUnknownRegisterFlagsRefused: a peer whose first frame the
// scheduler cannot serve is refused, not served as a phantom worker that
// would lose the task it is handed.  Two inputs: a register frame
// carrying any flag bit besides wire.FlagWantSnapshot (bit 1 was the
// retired multiplexing hello), and a register in the retired
// length-prefixed JSON framing, which is not a wire frame at all and
// fails to decode.  Either way the scheduler closes the connection
// without registering it or assigning it anything, and a normal worker
// then serves the queued task with balanced books.
func TestUnknownRegisterFlagsRefused(t *testing.T) {
	binaryFrame, err := wire.AppendFrame(nil, &wire.Message{Type: wire.TypeRegister, Flags: 1 << 1, Name: []byte("stale-peer")})
	if err != nil {
		t.Fatal(err)
	}
	jsonBody := `{"type":"register","name":"legacy","flags":1}`
	jsonFrame := binary.BigEndian.AppendUint32(nil, uint32(len(jsonBody)))
	jsonFrame = append(jsonFrame, jsonBody...)

	for _, tc := range []struct {
		name         string
		first        []byte
		decodeErrors int64
	}{
		{"unknown_flags", binaryFrame, 0},
		{"json_framed", jsonFrame, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
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

			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			result := make(chan error, 1)
			go func() {
				_, err := sched.Submit(ctx, json.RawMessage(`{"queued":true}`))
				result <- err
			}()
			waitFor(t, "the task to be queued", func() bool { return sched.Stats().Submitted == 1 })

			conn, err := net.Dial("tcp", sched.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(tc.first); err != nil {
				t.Fatal(err)
			}
			if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
				t.Fatal(err)
			}
			// A close with request bytes still unread may arrive as a reset.
			if n, err := conn.Read(make([]byte, 64)); err != io.EOF && !errors.Is(err, syscall.ECONNRESET) {
				t.Fatalf("refused first frame: read %d bytes, err %v; want the connection closed", n, err)
			}
			if w := sched.Stats().Workers; w != 0 {
				t.Fatalf("refused first frame left %d workers registered, want 0", w)
			}
			if got := sched.Wire().DecodeErrors; got != tc.decodeErrors {
				t.Errorf("decode errors = %d, want %d", got, tc.decodeErrors)
			}

			w, err := NewWorker(sched.Addr(), "normal", echoHandler)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			go func() { _ = w.Run(ctx) }()
			if err := <-result; err != nil {
				t.Fatalf("queued task after the refused peer: %v", err)
			}
			settled()
			// The assign event fires after the frame is written, so it can
			// trail the result.
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
		})
	}
}

// TestRetiredSubmitFrameRefused: a peer whose first frame has type byte
// 2 — the submit of the retired client protocol — is refused while a
// campaign runs.  The frame fails to decode and is counted in
// DecodeErrors, the peer loses its connection, and nothing else moves:
// its task is never queued, and the worker holding the campaign's task
// keeps its one connection and delivers the result.
func TestRetiredSubmitFrameRefused(t *testing.T) {
	lc, err := NewLocalCluster(0, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	sched := lc.Scheduler
	settled := watchBooks(t, sched)
	defer lc.Close()

	gate := make(chan struct{})
	held := func(_ context.Context, payload json.RawMessage) (json.RawMessage, error) {
		<-gate
		return payload, nil
	}
	w, err := NewWorker(sched.Addr(), "holder", held)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	go func() { _ = w.Run(context.Background()) }()
	result := make(chan error, 1)
	go func() {
		out, err := sched.Submit(context.Background(), json.RawMessage(`{"campaign":1}`))
		if err == nil && string(out) != `{"campaign":1}` {
			err = fmt.Errorf("result = %s", out)
		}
		result <- err
	}()
	waitFor(t, "the worker to hold the campaign's task", func() bool {
		ws := sched.WorkerStats()
		return len(ws) == 1 && ws[0].InFlight == 1
	})

	// The retired submit frame, built by hand: the encoder refuses type 2.
	id, payload := "task-1", `{"genome":[0.5]}`
	submit := []byte{byte(wire.Magic >> 8), byte(wire.Magic & 0xFF), wire.Version, 2, 0, byte(len(id))}
	submit = binary.BigEndian.AppendUint32(submit, uint32(len(payload)))
	submit = append(append(submit, id...), payload...)
	conn, err := net.Dial("tcp", sched.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(submit); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if n, err := conn.Read(make([]byte, 64)); err != io.EOF && !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("retired submit frame: read %d bytes, err %v; want the connection closed", n, err)
	}
	if got := sched.Wire().DecodeErrors; got != 1 {
		t.Errorf("decode errors = %d, want 1", got)
	}

	close(gate)
	if err := <-result; err != nil {
		t.Fatalf("campaign task after the refused peer: %v", err)
	}
	settled()
	if st := sched.Stats(); st.Submitted != 1 || st.Completed != 1 || st.Workers != 1 {
		t.Errorf("after the refused peer: %+v, want only the campaign's task on the books and the worker still connected", st)
	}
	if ww := w.Wire(); ww.Conns != 1 || ww.DecodeErrors != 0 {
		t.Errorf("worker wire = %v, want its one connection untouched", ww)
	}
}
