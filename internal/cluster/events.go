package cluster

import (
	"fmt"
	"time"
)

// EventType enumerates scheduler lifecycle events.  Events are the
// observability spine of the evaluation plane: at the paper's scale (100
// nodes, multi-hour trainings, §2.2.5) the interesting questions —
// which node is slow, which task bounced, which result arrived after its
// lease was given away — are all event-shaped, not gauge-shaped.
type EventType string

const (
	// EventWorkerConnect fires when a worker registers.
	EventWorkerConnect EventType = "worker_connect"
	// EventWorkerDisconnect fires when a worker connection is torn down.
	EventWorkerDisconnect EventType = "worker_disconnect"
	// EventAssign fires when a task is written to a worker.
	EventAssign EventType = "assign"
	// EventResult fires when a result is delivered to its submitter.
	EventResult EventType = "result"
	// EventLeaseExpired fires when an in-flight task's lease runs out and
	// the task is handed back to the queue while the worker stays
	// connected.
	EventLeaseExpired EventType = "lease_expired"
	// EventStaleResult fires when a result arrives for a task that was
	// already completed or reassigned; the result is discarded, the
	// worker is NOT treated as a protocol violator.
	EventStaleResult EventType = "stale_result"
	// EventRequeue fires when a task returns to the pending queue after a
	// worker failure or lease expiry.
	EventRequeue EventType = "requeue"
	// EventTaskAbandoned fires when a task exhausts MaxAttempts and is
	// failed permanently.
	EventTaskAbandoned EventType = "task_abandoned"
)

// Event is one scheduler occurrence, delivered synchronously to the
// Scheduler.OnEvent hook.  Handlers must be fast and must not call back
// into the scheduler.
type Event struct {
	Time   time.Time
	Type   EventType
	Worker string // worker name, when the event concerns one
	TaskID string
	Detail string
}

// String renders the event as one log-friendly line.
func (e Event) String() string {
	s := fmt.Sprintf("%s %s", e.Time.Format("15:04:05.000"), e.Type)
	if e.Worker != "" {
		s += " worker=" + e.Worker
	}
	if e.TaskID != "" {
		s += " task=" + e.TaskID
	}
	if e.Detail != "" {
		s += " " + e.Detail
	}
	return s
}

// WorkerStats is a snapshot of one connected worker's activity, the
// per-node view behind the aggregate Stats counters.
type WorkerStats struct {
	Name      string
	Completed int64         // results delivered from this worker
	Failed    int64         // application-error results from this worker
	Stale     int64         // late/duplicate results discarded
	Expired   int64         // leases that ran out on this worker
	InFlight  int           // tasks currently leased to this worker
	Latency   time.Duration // cumulative round-trip time of delivered results
	LastSeen  time.Time     // last frame read from this worker
}

// String renders a one-line summary suitable for a periodic stats dump.
func (ws WorkerStats) String() string {
	avg := time.Duration(0)
	if n := ws.Completed + ws.Failed; n > 0 {
		avg = ws.Latency / time.Duration(n)
	}
	return fmt.Sprintf("worker %q: completed=%d failed=%d stale=%d expired=%d inflight=%d avg_latency=%v",
		ws.Name, ws.Completed, ws.Failed, ws.Stale, ws.Expired, ws.InFlight, avg.Round(time.Millisecond))
}
