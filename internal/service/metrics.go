package service

import (
	"bytes"
	"fmt"
	"net/http"
	"sort"
	"sync/atomic"
)

// Metrics are rendered in the Prometheus text exposition format with
// only stdlib machinery.  Everything is emitted in a fixed order —
// states from a constant list, workers and event types pre-sorted — so
// consecutive scrapes of an idle service are byte-stable.

// metricStates fixes the emission order of the per-state campaign gauge.
var metricStates = []State{
	StateQueued, StateRunning, StateDone, StateFailed, StateCancelled, StateSuspended,
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer

	counts := map[State]int{}
	s.mu.Lock()
	for _, id := range s.order {
		c := s.campaigns[id]
		counts[c.State()]++
	}
	tenants := len(s.tenants)
	active := s.active
	draining := 0
	if s.draining {
		draining = 1
	}
	s.mu.Unlock()

	fmt.Fprintf(&buf, "# HELP repro_service_campaigns Campaigns by lifecycle state.\n")
	fmt.Fprintf(&buf, "# TYPE repro_service_campaigns gauge\n")
	for _, st := range metricStates {
		fmt.Fprintf(&buf, "repro_service_campaigns{state=%q} %d\n", string(st), counts[st])
	}
	fmt.Fprintf(&buf, "# TYPE repro_service_tenants gauge\nrepro_service_tenants %d\n", tenants)
	fmt.Fprintf(&buf, "# TYPE repro_service_active_campaigns gauge\nrepro_service_active_campaigns %d\n", active)
	fmt.Fprintf(&buf, "# TYPE repro_service_draining gauge\nrepro_service_draining %d\n", draining)
	fmt.Fprintf(&buf, "# HELP repro_service_evaluations_total Evaluations dispatched to the backend (memo hits excluded).\n")
	fmt.Fprintf(&buf, "# TYPE repro_service_evaluations_total counter\nrepro_service_evaluations_total %d\n", s.EvaluationsTotal())

	fmt.Fprintf(&buf, "# HELP repro_service_checkpoint Checkpoint writes (a header or one appended line) and the bytes they put on disk; nothing is rewritten, so bytes_total is the size of the files.\n")
	fmt.Fprintf(&buf, "# TYPE repro_service_checkpoint_appends_total counter\nrepro_service_checkpoint_appends_total %d\n", atomic.LoadInt64(&s.ckptAppends))
	fmt.Fprintf(&buf, "# TYPE repro_service_checkpoint_bytes_total counter\nrepro_service_checkpoint_bytes_total %d\n", atomic.LoadInt64(&s.ckptBytes))

	ms := s.MemoStats()
	fmt.Fprintf(&buf, "# HELP repro_service_memo Memo-cache counters shared across all campaigns.\n")
	fmt.Fprintf(&buf, "# TYPE repro_service_memo_hits_total counter\nrepro_service_memo_hits_total %d\n", ms.Hits)
	fmt.Fprintf(&buf, "# TYPE repro_service_memo_misses_total counter\nrepro_service_memo_misses_total %d\n", ms.Misses)
	fmt.Fprintf(&buf, "# TYPE repro_service_memo_entries gauge\nrepro_service_memo_entries %d\n", ms.Entries)

	if s.cfg.SchedulerStats != nil {
		st, workers := s.cfg.SchedulerStats()
		fmt.Fprintf(&buf, "# HELP repro_cluster_tasks Lease-scheduler task counters.\n")
		fmt.Fprintf(&buf, "# TYPE repro_cluster_tasks_submitted_total counter\nrepro_cluster_tasks_submitted_total %d\n", st.Submitted)
		fmt.Fprintf(&buf, "# TYPE repro_cluster_tasks_completed_total counter\nrepro_cluster_tasks_completed_total %d\n", st.Completed)
		fmt.Fprintf(&buf, "# TYPE repro_cluster_tasks_failed_total counter\nrepro_cluster_tasks_failed_total %d\n", st.Failed)
		fmt.Fprintf(&buf, "# TYPE repro_cluster_tasks_reassigned_total counter\nrepro_cluster_tasks_reassigned_total %d\n", st.Reassigned)
		fmt.Fprintf(&buf, "# TYPE repro_cluster_tasks_expired_total counter\nrepro_cluster_tasks_expired_total %d\n", st.Expired)
		fmt.Fprintf(&buf, "# TYPE repro_cluster_tasks_stale_total counter\nrepro_cluster_tasks_stale_total %d\n", st.Stale)
		fmt.Fprintf(&buf, "# HELP repro_cluster_queue_waits_total Submissions that blocked on a full pending queue (backpressure).\n")
		fmt.Fprintf(&buf, "# TYPE repro_cluster_queue_waits_total counter\nrepro_cluster_queue_waits_total %d\n", st.QueueWaits)
		fmt.Fprintf(&buf, "# HELP repro_cluster_queue_depth Tasks waiting in the pending queue.\n")
		fmt.Fprintf(&buf, "# TYPE repro_cluster_queue_depth gauge\nrepro_cluster_queue_depth %d\n", st.Pending)
		fmt.Fprintf(&buf, "# TYPE repro_cluster_workers gauge\nrepro_cluster_workers %d\n", len(workers))
		fmt.Fprintf(&buf, "# TYPE repro_cluster_worker_inflight gauge\n")
		for _, ws := range workers { // WorkerStats arrives sorted by name
			fmt.Fprintf(&buf, "repro_cluster_worker_inflight{worker=%q} %d\n", ws.Name, ws.InFlight)
		}
		fmt.Fprintf(&buf, "# TYPE repro_cluster_worker_completed_total counter\n")
		for _, ws := range workers {
			fmt.Fprintf(&buf, "repro_cluster_worker_completed_total{worker=%q} %d\n", ws.Name, ws.Completed)
		}
	}
	if s.cfg.SchedulerWire != nil {
		ws := s.cfg.SchedulerWire()
		fmt.Fprintf(&buf, "# HELP repro_cluster_wire Transport-level frame and byte counters.\n")
		fmt.Fprintf(&buf, "# TYPE repro_cluster_wire_frames_in_total counter\nrepro_cluster_wire_frames_in_total %d\n", ws.FramesIn)
		fmt.Fprintf(&buf, "# TYPE repro_cluster_wire_frames_out_total counter\nrepro_cluster_wire_frames_out_total %d\n", ws.FramesOut)
		fmt.Fprintf(&buf, "# TYPE repro_cluster_wire_bytes_in_total counter\nrepro_cluster_wire_bytes_in_total %d\n", ws.BytesIn)
		fmt.Fprintf(&buf, "# TYPE repro_cluster_wire_bytes_out_total counter\nrepro_cluster_wire_bytes_out_total %d\n", ws.BytesOut)
		fmt.Fprintf(&buf, "# TYPE repro_cluster_wire_decode_errors_total counter\nrepro_cluster_wire_decode_errors_total %d\n", ws.DecodeErrors)
		fmt.Fprintf(&buf, "# TYPE repro_cluster_wire_conns_total counter\nrepro_cluster_wire_conns_total %d\n", ws.Conns)
	}
	if s.cfg.SchedulerEvents != nil {
		types, counts := s.cfg.SchedulerEvents.Counts()
		fmt.Fprintf(&buf, "# HELP repro_cluster_events_total Scheduler lifecycle events by type.\n")
		fmt.Fprintf(&buf, "# TYPE repro_cluster_events_total counter\n")
		for i, t := range types {
			fmt.Fprintf(&buf, "repro_cluster_events_total{type=%q} %d\n", string(t), counts[i])
		}
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if _, err := w.Write(buf.Bytes()); err != nil {
		s.logf("metrics_write_error", "err", err)
	}
}

// sortedTenantNames is a metrics/debug helper returning tenant names in
// deterministic order.
func (s *Service) sortedTenantNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]string(nil), s.tenantOrder...)
	sort.Strings(out)
	return out
}
