package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster/wire"
)

// task is one unit of work tracked by the scheduler.
type task struct {
	id       string
	payload  json.RawMessage
	attempts int
	out      *outbox // the submitting client's result queue
	mu       sync.Mutex
	done     bool
}

// complete delivers a result exactly once; late duplicates (e.g. from a
// worker that answered after its lease was given away) are dropped.  The
// call that claims the task adds one to counter — Stats.Completed or
// Stats.Failed — and only then publishes the result, so a submitter that
// has its result also finds it counted.  Publishing never blocks: it
// queues the result for the client's writer.  It reports whether THIS
// call delivered the result.
func (t *task) complete(m *message, counter *int64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return false
	}
	t.done = true
	atomic.AddInt64(counter, 1)
	t.out.put(m)
	return true
}

func (t *task) isDone() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.done
}

// Stats reports scheduler activity counters.  The books balance:
// every submitted task is eventually counted exactly once as Completed or
// Failed, regardless of how many times it was reassigned or how many
// duplicate results arrived.
type Stats struct {
	Submitted  int64 // tasks received from clients
	Completed  int64 // tasks finished successfully
	Failed     int64 // tasks finished with an application error (or abandoned)
	Reassigned int64 // tasks requeued after a worker death or lease expiry
	Expired    int64 // leases that ran out (subset of Reassigned causes)
	Stale      int64 // late/duplicate results discarded
	Workers    int64 // workers currently connected
	QueueWaits int64 // enqueues that blocked on a full pending queue (backpressure)
	Pending    int64 // tasks waiting in the pending queue (a gauge)
}

// queueDepth bounds the scheduler's pending queue.  A submitter that
// finds it full blocks, and Stats.QueueWaits counts the wait.  A paper
// campaign puts at most one wave of five runs × 100 individuals in
// flight, so 4096 only pushes back on a submitter far beyond that.
const queueDepth = 4096

// lease tracks one in-flight assignment: which task a worker is holding
// and until when the scheduler believes it.  Heartbeats renew the
// deadline; a lease that runs out hands the task back to the queue while
// the worker connection stays up — one slow round-trip no longer costs a
// healthy node (the bug this type exists to fix).
type lease struct {
	t        *task
	deadline time.Time
	started  time.Time
	resolved chan struct{} // closed when the reader delivers the result
}

// Scheduler accepts worker and client connections and routes tasks.
type Scheduler struct {
	// MaxAttempts bounds how many times a task is reassigned after worker
	// deaths or lease expiries before being failed outright (default 3).
	MaxAttempts int
	// TaskTimeout, if positive, is the lease duration for one assignment:
	// how long a worker may hold a task without completing it or
	// heartbeating before the scheduler hands the task to someone else.
	// It guards against nodes that hang without dropping their connection
	// — a hardware failure mode the paper's §2.2.4 lists.  Workers
	// normally enforce their own (shorter) execution limit; the lease is
	// the liveness backstop, not the execution cap.
	TaskTimeout time.Duration
	// Logf, if non-nil, receives diagnostic output.
	Logf func(format string, args ...interface{})
	// OnEvent, if non-nil, receives scheduler lifecycle events
	// synchronously.  Handlers must be fast and must not call back into
	// the scheduler.  Set it before the first connection arrives.
	OnEvent func(Event)

	ln net.Listener
	// pending is the dispatch queue: one bounded FIFO channel.  A send
	// that finds worker proxies parked on it hands the task straight to
	// the one that has waited longest (Go serves blocked receivers in
	// order), so load spreads round-robin and a worker that just bounced
	// a task cannot win it straight back from a parked healthy one.
	pending chan *task
	stats   Stats
	wire    wireCounters
	wg      sync.WaitGroup
	closed  chan struct{}
	once    sync.Once

	workersMu sync.Mutex
	workers   map[*workerProxy]struct{}

	connsMu sync.Mutex
	conns   map[net.Conn]struct{}
}

// NewScheduler creates a scheduler listening on addr (e.g. "127.0.0.1:0").
func NewScheduler(addr string) (*Scheduler, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Scheduler{
		MaxAttempts: 3,
		ln:          ln,
		pending:     make(chan *task, queueDepth),
		closed:      make(chan struct{}),
		workers:     make(map[*workerProxy]struct{}),
		conns:       make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listen address for clients and workers.
func (s *Scheduler) Addr() string { return s.ln.Addr().String() }

// Stats returns a snapshot of activity counters.  Completed + Failed <=
// Submitted in every snapshot, and Completed + Failed == Submitted at
// every instant a submitter can observe once it holds the results of all
// its tasks: a task is counted before its result is published, and
// Submitted is loaded after the two counters it bounds.
func (s *Scheduler) Stats() Stats {
	completed := atomic.LoadInt64(&s.stats.Completed)
	failed := atomic.LoadInt64(&s.stats.Failed)
	return Stats{
		Submitted:  atomic.LoadInt64(&s.stats.Submitted),
		Completed:  completed,
		Failed:     failed,
		Reassigned: atomic.LoadInt64(&s.stats.Reassigned),
		Expired:    atomic.LoadInt64(&s.stats.Expired),
		Stale:      atomic.LoadInt64(&s.stats.Stale),
		Workers:    atomic.LoadInt64(&s.stats.Workers),
		QueueWaits: atomic.LoadInt64(&s.stats.QueueWaits),
		Pending:    int64(len(s.pending)),
	}
}

// Wire returns a snapshot of the scheduler's transport counters,
// aggregated across every connection it has accepted.
func (s *Scheduler) Wire() WireStats { return s.wire.snapshot() }

// WorkerStats snapshots the per-worker counters of every connected
// worker, sorted by name.
func (s *Scheduler) WorkerStats() []WorkerStats {
	s.workersMu.Lock()
	proxies := make([]*workerProxy, 0, len(s.workers))
	for w := range s.workers {
		proxies = append(proxies, w)
	}
	s.workersMu.Unlock()
	out := make([]WorkerStats, 0, len(proxies))
	for _, w := range proxies {
		out = append(out, w.snapshot())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Close shuts the scheduler down and waits for connection handlers.
// Active worker and client connections are force-closed: their owners are
// expected to reconnect (and, for clients, resubmit) if a new scheduler
// comes up — the scheduler holds no durable state worth draining.
func (s *Scheduler) Close() error {
	s.once.Do(func() { close(s.closed) })
	err := s.ln.Close()
	s.connsMu.Lock()
	for c := range s.conns {
		//lint:ignore errdiscard force-close on shutdown by design: unblocks reader goroutines; the listener close error is what Close reports
		c.Close()
	}
	s.connsMu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Scheduler) logf(format string, args ...interface{}) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

func (s *Scheduler) event(typ EventType, worker, taskID, detail string) {
	if s.OnEvent == nil {
		return
	}
	s.OnEvent(Event{Time: time.Now(), Type: typ, Worker: worker, TaskID: taskID, Detail: detail})
}

func (s *Scheduler) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
				s.logf("cluster: accept: %v", err)
				return
			}
		}
		s.wg.Add(1)
		go s.handleConn(conn)
	}
}

// handleConn reads the first message to learn whether the peer is a
// worker or a client, then runs the corresponding proxy loop.  A frame
// that fails to decode — here or in either proxy, and including a
// foreign peer whose first bytes are not wire.Magic — costs only this
// connection: the codec counts the error, the handler returns, and the
// campaign carries on over the surviving connections.
func (s *Scheduler) handleConn(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	s.connsMu.Lock()
	s.conns[conn] = struct{}{}
	s.connsMu.Unlock()
	defer func() {
		s.connsMu.Lock()
		delete(s.conns, conn)
		s.connsMu.Unlock()
	}()
	// Close marks s.closed before it sweeps s.conns: a connection accepted
	// as the listener went down either registered in time to be swept or
	// sees the mark here — it is never left waiting on a silent peer.
	select {
	case <-s.closed:
		return
	default:
	}
	cd := newCodec(conn, &s.wire)
	first, err := cd.read()
	if err != nil {
		return
	}
	switch first.Type {
	case wire.TypeRegister:
		// A register flag this scheduler does not know (a retired peer's
		// multiplexing hello among them) would register a phantom worker
		// whose first task is lost to a decode error: refuse it instead.
		if first.Flags&^wire.FlagWantSnapshot != 0 {
			s.logf("cluster: refusing register from %q with unknown flags %#x", first.Name, first.Flags)
			return
		}
		s.runWorkerProxy(conn, cd, first)
	case wire.TypeSubmit:
		s.runClientProxy(cd, first)
	default:
		s.logf("cluster: unexpected first message %q", first.Type)
	}
}

// snapshot captures the compact catch-up state sent to a late-joining
// worker that asked for it: the campaign epoch (tasks submitted so
// far), the queue depth, and the sorted ids of every outstanding lease.
// Its cost is O(in-flight tasks) — there is no history to replay.
func (s *Scheduler) snapshot() *Snapshot {
	snap := &Snapshot{
		Epoch:   uint64(atomic.LoadInt64(&s.stats.Submitted)),
		Pending: len(s.pending),
	}
	s.workersMu.Lock()
	for w := range s.workers {
		w.mu.Lock()
		for id := range w.inflight {
			snap.Leases = append(snap.Leases, id)
		}
		w.mu.Unlock()
	}
	s.workersMu.Unlock()
	sort.Strings(snap.Leases)
	return snap
}

// workerProxy is the scheduler-side state of one worker connection: the
// connection itself, the leases currently held by the worker, and its
// activity counters.
type workerProxy struct {
	s    *Scheduler
	conn net.Conn
	cd   *codec
	name string

	mu       sync.Mutex
	inflight map[string]*lease
	ws       WorkerStats

	dead     chan struct{} // closed when the read loop exits
	deadOnce sync.Once
}

func (w *workerProxy) snapshot() WorkerStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	ws := w.ws
	ws.Name = w.name
	ws.InFlight = len(w.inflight)
	return ws
}

// runWorkerProxy pulls pending tasks and leases them to one worker
// connection.  A worker that dies mid-task gets its leases requeued —
// the scheduler "reassigning tasks to other workers" after a node
// failure, with nannies disabled (§2.2.5).  A worker that is merely slow
// loses the lease but keeps the connection, so one slow task cannot
// permanently remove a healthy node from the pool.
func (s *Scheduler) runWorkerProxy(conn net.Conn, cd *codec, first *message) {
	name := first.Name
	w := &workerProxy{
		s:        s,
		conn:     conn,
		cd:       cd,
		name:     name,
		inflight: make(map[string]*lease),
		dead:     make(chan struct{}),
	}
	atomic.AddInt64(&s.stats.Workers, 1)
	s.workersMu.Lock()
	s.workers[w] = struct{}{}
	s.workersMu.Unlock()
	defer func() {
		s.workersMu.Lock()
		delete(s.workers, w)
		s.workersMu.Unlock()
		atomic.AddInt64(&s.stats.Workers, -1)
		conn.Close()
		<-w.dead // reader has stopped touching shared state
		s.event(EventWorkerDisconnect, name, "", "")
		s.logf("cluster: worker %q disconnected", name)
	}()
	s.logf("cluster: worker %q connected", name)
	s.event(EventWorkerConnect, name, "", "")

	// Started before anything below can return: the deferred cleanup
	// waits for the reader to close w.dead.
	go w.readLoop()

	// A worker that set wire.FlagWantSnapshot (our Worker always does)
	// gets the compact catch-up state before its first assignment.  Raw
	// registrants without the flag see the exact pre-snapshot protocol.
	if first.Flags&wire.FlagWantSnapshot != 0 {
		if err := cd.write(&message{Type: wire.TypeSnapshot, Snap: s.snapshot()}); err != nil {
			return
		}
	}

	for {
		var t *task
		select {
		case t = <-s.pending:
		case <-w.dead:
			return
		case <-s.closed:
			return
		}
		if t.isDone() {
			continue
		}
		if !w.dispatch(t) {
			return
		}
	}
}

// dispatch leases one task to the worker and blocks until the task is
// resolved (result delivered, lease expired, worker dead, or scheduler
// closed).  It reports whether the worker is still usable.
func (w *workerProxy) dispatch(t *task) bool {
	s := w.s
	now := time.Now()
	l := &lease{t: t, started: now, resolved: make(chan struct{})}
	if s.TaskTimeout > 0 {
		l.deadline = now.Add(s.TaskTimeout)
	}
	w.mu.Lock()
	w.inflight[t.id] = l
	w.mu.Unlock()

	if err := w.cd.write(&message{Type: wire.TypeAssign, TaskID: t.id, Payload: t.payload}); err != nil {
		w.take(t.id)
		s.requeue(t, w.name, fmt.Sprintf("assign write failed: %v", err))
		return false
	}
	s.event(EventAssign, w.name, t.id, "")

	for {
		var expiry <-chan time.Time
		var timer *time.Timer
		if s.TaskTimeout > 0 {
			w.mu.Lock()
			deadline := l.deadline
			w.mu.Unlock()
			timer = time.NewTimer(time.Until(deadline))
			expiry = timer.C
		}
		select {
		case <-l.resolved:
			if timer != nil {
				timer.Stop()
			}
			return true
		case <-expiry:
			w.mu.Lock()
			cur, held := w.inflight[t.id]
			renewed := held && time.Now().Before(cur.deadline)
			if held && !renewed {
				delete(w.inflight, t.id)
				w.ws.Expired++
			}
			w.mu.Unlock()
			if renewed {
				continue // a heartbeat extended the lease; re-arm
			}
			if !held {
				continue // the reader resolved it concurrently; resolved fires next
			}
			atomic.AddInt64(&s.stats.Expired, 1)
			if s.OnEvent != nil {
				s.event(EventLeaseExpired, w.name, t.id, fmt.Sprintf("after %v", s.TaskTimeout))
			}
			s.requeue(t, w.name, "lease expired")
			// The worker stays connected: a late result will be discarded
			// as stale by the reader, and the next pending task can still
			// be leased here.
			return true
		case <-w.dead:
			if timer != nil {
				timer.Stop()
			}
			if _, held := w.take(t.id); held {
				s.requeue(t, w.name, "worker connection lost")
			}
			return false
		case <-s.closed:
			if timer != nil {
				timer.Stop()
			}
			// Leave the task unresolved: client connections are dropping
			// too, and a reconnecting client will resubmit.
			w.take(t.id)
			return false
		}
	}
}

// take removes and returns the lease for id, if the proxy still holds it.
func (w *workerProxy) take(id string) (*lease, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	l, ok := w.inflight[id]
	if ok {
		delete(w.inflight, id)
	}
	return l, ok
}

// readLoop owns reads on the worker connection: results and heartbeats.
// Results for unknown tasks — completed elsewhere, reassigned after a
// lease expiry, or duplicated — are discarded with a stale-result event
// rather than treated as protocol violations, so a worker that answers
// late is never punished for it.
func (w *workerProxy) readLoop() {
	defer w.deadOnce.Do(func() { close(w.dead) })
	s := w.s
	for {
		m, err := w.cd.read()
		if err != nil {
			return
		}
		w.mu.Lock()
		w.ws.LastSeen = time.Now()
		w.mu.Unlock()
		switch m.Type {
		case wire.TypeHeartbeat:
			if s.TaskTimeout > 0 {
				w.mu.Lock()
				if l, ok := w.inflight[m.TaskID]; ok {
					l.deadline = time.Now().Add(s.TaskTimeout)
				}
				w.mu.Unlock()
			}
		case wire.TypeResult:
			l, held := w.take(m.TaskID)
			if !held {
				atomic.AddInt64(&s.stats.Stale, 1)
				w.mu.Lock()
				w.ws.Stale++
				w.mu.Unlock()
				s.event(EventStaleResult, w.name, m.TaskID, "discarded")
				continue
			}
			w.deliver(l, m)
			close(l.resolved)
		default:
			s.logf("cluster: worker %q sent unexpected %q; ignoring", w.name, m.Type)
		}
	}
}

// deliver hands a result to the task, counting Completed/Failed only if
// this worker's result was the one actually delivered — a duplicate from
// a previously-expired lease must not inflate the books.
func (w *workerProxy) deliver(l *lease, m *message) {
	s := w.s
	counter := &s.stats.Completed
	if m.Err != "" {
		counter = &s.stats.Failed
	}
	if !l.t.complete(m, counter) {
		atomic.AddInt64(&s.stats.Stale, 1)
		w.mu.Lock()
		w.ws.Stale++
		w.mu.Unlock()
		s.event(EventStaleResult, w.name, m.TaskID, "task already completed")
		return
	}
	elapsed := time.Since(l.started)
	w.mu.Lock()
	if m.Err != "" {
		w.ws.Failed++
	} else {
		w.ws.Completed++
	}
	w.ws.Latency += elapsed
	w.mu.Unlock()
	if s.OnEvent != nil {
		s.event(EventResult, w.name, m.TaskID, fmt.Sprintf("after %v err=%q", elapsed.Round(time.Millisecond), m.Err))
	}
}

// requeue puts a task back on the queue after a worker failure or lease
// expiry, or fails it permanently once attempts are exhausted.
func (s *Scheduler) requeue(t *task, worker, why string) {
	if t.isDone() {
		return
	}
	t.attempts++
	if t.attempts >= s.MaxAttempts {
		if t.complete(&message{Type: wire.TypeResult, TaskID: t.id, Err: "cluster: task abandoned after repeated worker failures"}, &s.stats.Failed) && s.OnEvent != nil {
			s.event(EventTaskAbandoned, worker, t.id, fmt.Sprintf("after %d attempts (%s)", t.attempts, why))
		}
		return
	}
	atomic.AddInt64(&s.stats.Reassigned, 1)
	s.event(EventRequeue, worker, t.id, why)
	// An enqueue that fails means the scheduler closed; dropping the task
	// is deliberate — the client connection is going down with the
	// scheduler, and a reconnecting client resubmits.
	s.enqueue(t)
}

// enqueue puts t on the pending queue, blocking while the queue is full;
// a submission that has to wait is counted once in Stats.QueueWaits.  It
// reports false if the scheduler closed before a slot freed.
func (s *Scheduler) enqueue(t *task) bool {
	select {
	case s.pending <- t:
		return true
	default:
	}
	atomic.AddInt64(&s.stats.QueueWaits, 1)
	select {
	case s.pending <- t:
		return true
	case <-s.closed:
		return false
	}
}

// outbox queues one client connection's results for its writer.  put
// never blocks, so a slow or vanished client cannot stall the worker
// proxy reader that delivers into it; once the client proxy is gone,
// results are dropped.
type outbox struct {
	mu     sync.Mutex
	queue  []*message
	closed bool
	wake   chan struct{} // buffer 1: "the queue may be non-empty"
}

func (o *outbox) put(m *message) {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return
	}
	o.queue = append(o.queue, m)
	o.mu.Unlock()
	select {
	case o.wake <- struct{}{}:
	default: // a wake-up is already pending
	}
}

// take swaps the queued results out for batch's emptied backing array.
func (o *outbox) take(batch []*message) []*message {
	clear(batch)
	o.mu.Lock()
	batch, o.queue = o.queue, batch[:0]
	o.mu.Unlock()
	return batch
}

// close drops whatever is queued and every later result.
func (o *outbox) close() {
	o.mu.Lock()
	o.closed = true
	o.queue = nil
	o.mu.Unlock()
}

// runClientProxy accepts submissions from one client connection and
// returns results as they complete.  Results may arrive out of submission
// order; the TaskID correlates them.  One writer goroutine sends each
// batch of queued results with a single write.
func (s *Scheduler) runClientProxy(cd *codec, first *message) {
	out := &outbox{wake: make(chan struct{}, 1)}
	writerDone := make(chan struct{})
	clientDone := make(chan struct{})
	defer func() {
		close(clientDone)
		<-writerDone
	}()
	go func() {
		defer close(writerDone)
		defer out.close()
		var batch []*message
		for {
			select {
			case <-out.wake:
			case <-clientDone:
				return
			}
			batch = out.take(batch)
			if len(batch) == 0 {
				continue // woken for results an earlier take already sent
			}
			if err := cd.writeBatch(batch); err != nil {
				return
			}
		}
	}()

	submit := func(m *message) error {
		atomic.AddInt64(&s.stats.Submitted, 1)
		if !s.enqueue(&task{id: m.TaskID, payload: m.Payload, out: out}) {
			return errors.New("scheduler closed")
		}
		return nil
	}

	if err := submit(first); err != nil {
		return
	}
	for {
		m, err := cd.read()
		if err != nil {
			return
		}
		if m.Type != wire.TypeSubmit {
			s.logf("cluster: client protocol violation: %q", m.Type)
			return
		}
		if err := submit(m); err != nil {
			return
		}
	}
}

// String describes the scheduler state for diagnostics.
func (s *Scheduler) String() string {
	st := s.Stats()
	return fmt.Sprintf("Scheduler{addr=%s workers=%d submitted=%d completed=%d failed=%d reassigned=%d expired=%d stale=%d queue_waits=%d pending=%d}",
		s.Addr(), st.Workers, st.Submitted, st.Completed, st.Failed, st.Reassigned, st.Expired, st.Stale, st.QueueWaits, st.Pending)
}
