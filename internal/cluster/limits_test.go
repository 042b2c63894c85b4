package cluster

// Fences for the time limits a served fleet is built with: the scheduler
// drops a hung worker and takes its task back once its lease runs out,
// and the in-process workers heartbeat, so a task that runs longer than
// the lease is never taken from them.  Each case builds its fleet as
// cmd/serve does, through ListenLocalCluster, with the table shrunk by
// one factor (ratios kept) so that it runs in well under two seconds.

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster/wire"
	"repro/internal/ea"
)

// shrinkServed divides every served limit by 300 until the test ends: a
// 50 ms heartbeat, a 200 ms lease and a 24 s execution cap.
func shrinkServed(t *testing.T) limits {
	t.Helper()
	paper := served
	t.Cleanup(func() { served = paper })
	served = limits{evalCap: paper.evalCap / 300, heartbeat: paper.heartbeat / 300, lease: paper.lease / 300}
	return served
}

// serveFleet builds the fleet cmd/serve's run builds, listening on a
// free loopback port, with n in-process workers running h.
func serveFleet(t *testing.T, n int, h Handler) *LocalCluster {
	t.Helper()
	lc, err := ListenLocalCluster("127.0.0.1:0", n, h)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := lc.Close(); err != nil {
			t.Error(err)
		}
	})
	return lc
}

// TestServedLimitsOrder: a heartbeat comes well inside the lease, and the
// lease runs out long before the execution cap, so a hung node is found
// out before a slow training is given up on.  The shrunk table keeps
// both relations.
func TestServedLimitsOrder(t *testing.T) {
	if want := (limits{ea.PaperEvalTimeout, HeartbeatInterval, LeaseTimeout}); served != want {
		t.Errorf("served limits %+v, want the declared table %+v", served, want)
	}
	for _, l := range []limits{served, shrinkServed(t)} {
		if !(0 < l.heartbeat && l.heartbeat < l.lease && l.lease < l.evalCap) {
			t.Errorf("%+v: want 0 < heartbeat < lease < cap", l)
		}
		if l.lease < LeaseHeartbeats*l.heartbeat {
			t.Errorf("%+v: the lease is shorter than %d heartbeats", l, LeaseHeartbeats)
		}
	}
}

// TestServedFleetRescuesHungWorker: a TCP worker registers, takes a task
// and then goes silent with its connection up — it neither answers nor
// heartbeats nor closes (the chaos proxy's blackhole).  The task
// completes on another worker once the lease runs out.
func TestServedFleetRescuesHungWorker(t *testing.T) {
	lim := shrinkServed(t)
	lc := serveFleet(t, 0, echoHandler)
	sched := lc.Scheduler
	settled := watchBooks(t, sched)
	proxy := newChaosProxy(t, sched.Addr())

	hung, err := NewWorker(proxy.Addr(), "hung", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer hung.Close()
	go func() { _ = hung.Run(context.Background()) }()
	proxy.SetBlackhole(true) // the assignment vanishes en route, and nothing comes back

	start := time.Now()
	resCh := make(chan error, 1)
	go func() {
		_, err := sched.Submit(context.Background(), json.RawMessage(`{"x":1}`))
		resCh <- err
	}()
	waitFor(t, "the hung worker to be leased the task", func() bool { return sched.Stats().Assigned == 1 })

	healthy, err := NewWorker(sched.Addr(), "healthy", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	go func() { _ = healthy.Run(context.Background()) }()

	select {
	case err := <-resCh:
		if err != nil {
			t.Fatalf("task not rescued from the hung worker: %v", err)
		}
	case <-time.After(2 * lim.lease):
		t.Fatalf("task still held by the hung worker %v after it was submitted (lease %v)", time.Since(start).Round(time.Millisecond), lim.lease)
	}
	settled()
	if st := sched.Stats(); st.Expired != 1 || st.Reassigned != 1 || st.Completed != 1 {
		t.Errorf("after the rescue: %+v, want one expiry, one reassignment and one completion", st)
	}
}

// TestServedFleetHeartbeatsLongTask: an in-process worker runs a task
// for three leases.  Its heartbeats renew the lease, so the task runs
// once and completes, and no lease expires.
func TestServedFleetHeartbeatsLongTask(t *testing.T) {
	lim := shrinkServed(t)
	var calls atomic.Int64
	lc := serveFleet(t, 1, func(_ context.Context, payload []byte) ([]byte, error) {
		calls.Add(1)
		time.Sleep(3 * lim.lease)
		return payload, nil
	})
	sched := lc.Scheduler
	settled := watchBooks(t, sched)

	out, err := sched.Submit(context.Background(), json.RawMessage(`{"long":true}`))
	if err != nil {
		t.Fatalf("long task failed: %v", err)
	}
	if string(out) != `{"long":true}` {
		t.Errorf("result = %s", out)
	}
	settled()
	if n := calls.Load(); n != 1 {
		t.Errorf("the handler ran %d times, want once", n)
	}
	if st := sched.Stats(); st.Expired != 0 || st.Reassigned != 0 || st.Completed != 1 {
		t.Errorf("a heartbeating in-process worker lost its lease: %+v", st)
	}
}

// hungPeer registers with the scheduler at addr over TCP and then hangs
// with its connection up: it reads every frame it is sent and never
// answers, heartbeats or closes, until the scheduler drops it.
func hungPeer(t *testing.T, addr, name string) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	cd := newCodec(conn, &wireCounters{})
	if err := cd.write(&message{Type: wire.TypeRegister, Name: name}); err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			if _, err := cd.read(); err != nil {
				return
			}
		}
	}()
}

// TestServedFleetDropsHungWorker: two hung TCP peers idle ahead of one
// healthy worker, so the first task meets each of them in turn.  A lease
// that runs out drops its worker, as a disconnect does, so each hung
// peer costs one lease in all, not one per task: every task submitted
// once both are dropped completes within one heartbeat interval.  With
// MaxAttempts 2 the first task, which met both, is the only one
// abandoned.
func TestServedFleetDropsHungWorker(t *testing.T) {
	const hung = 2
	for _, tc := range []struct {
		name        string
		lease       time.Duration // 0 keeps the shrunk table's
		maxAttempts int           // 0 keeps the scheduler's default
		submits     int
		abandoned   int64 // at most
	}{
		{"served", 0, 0, 8, 0},
		{"max_attempts_2", 100 * time.Millisecond, 2, 6, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lim := shrinkServed(t)
			lc := serveFleet(t, 0, echoHandler)
			sched := lc.Scheduler
			if tc.lease > 0 {
				sched.TaskTimeout = tc.lease
			}
			if tc.maxAttempts > 0 {
				sched.MaxAttempts = tc.maxAttempts
			}
			settled := watchBooks(t, sched)
			for i := 0; i < hung; i++ {
				hungPeer(t, sched.Addr(), fmt.Sprintf("hung-%d", i))
				waitFor(t, "the hung peer to idle", func() bool { return sched.nIdle.Load() == int64(i+1) })
			}
			healthy, err := NewWorker(sched.Addr(), "healthy", echoHandler)
			if err != nil {
				t.Fatal(err)
			}
			defer healthy.Close()
			go func() { _ = healthy.Run(context.Background()) }()

			var failed int64
			for i := 0; i < tc.submits; i++ {
				dropped := sched.Stats().Disconnected == hung
				start := time.Now()
				_, err := sched.Submit(context.Background(), json.RawMessage(fmt.Sprintf(`{"i":%d}`, i)))
				took := time.Since(start)
				t.Logf("submit %d: %v (err %v)", i, took.Round(10*time.Microsecond), err)
				if err != nil {
					failed++
				}
				if dropped && took > lim.heartbeat {
					t.Errorf("submit %d took %v with both hung peers dropped, want within one heartbeat interval (%v)", i, took, lim.heartbeat)
				}
			}
			settled()
			// An expiry is counted before its task is requeued, so the
			// count is whole once every submit has returned.
			if st := sched.Stats(); st.Expired > hung {
				t.Errorf("%d leases expired over %d submits, want at most one per hung peer (%d): %+v", st.Expired, tc.submits, hung, st)
			}
			if failed > tc.abandoned {
				t.Errorf("%d of %d submits failed, want at most %d abandoned: %+v", failed, tc.submits, tc.abandoned, sched.Stats())
			}
			// A drop is counted after its retire, an abandon after its
			// submitter has the error: either can trail the last submit.
			waitFor(t, "both hung peers to be dropped and every failed submit counted as abandoned", func() bool {
				st := sched.Stats()
				return st.Disconnected == hung && st.Abandoned == failed
			})
			if st := sched.Stats(); st.Workers != 1 {
				t.Errorf("want only the healthy worker left: %+v", st)
			}
		})
	}
}
