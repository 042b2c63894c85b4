package cluster

// Fences for the time limits a served fleet is built with: the scheduler
// takes a hung worker's task back once its lease runs out, and the
// in-process workers heartbeat, so a task that runs longer than the
// lease is never taken from them.  Each case builds its fleet as
// cmd/serve does, through ListenLocalCluster, with the table shrunk by
// one factor (ratios kept) so that it runs in well under two seconds.

import (
	"context"
	"encoding/json"
	"sync/atomic"
	"testing"
	"time"

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
