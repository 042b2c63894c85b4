package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster/wire"
)

// task is one unit of work tracked by the scheduler.
type task struct {
	id       string
	payload  []byte
	attempts int
	res      chan *message // one slot: the result, sent exactly once
	mu       sync.Mutex
	done     bool
}

// complete delivers a result exactly once; late duplicates (a repeated
// result frame, or one for a task Close already failed) are dropped.  The
// call that claims the task adds one to counter — Stats.Completed or
// Stats.Failed — and only then publishes the result, so a submitter that
// has its result also finds it counted.  Publishing never blocks, whether
// or not the submitter still waits: the result goes into the task's one
// free slot.  It reports whether THIS call delivered the result.
func (t *task) complete(m *message, counter *int64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return false
	}
	t.done = true
	atomic.AddInt64(counter, 1)
	t.res <- m
	return true
}

func (t *task) isDone() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.done
}

// Stats reports scheduler activity counters, the one record of the
// scheduler's lifecycle: each occurrence is counted once, where it
// happens.  The books balance: every submitted task is eventually counted
// exactly once as Completed or Failed, regardless of how many times it
// was reassigned or how many duplicate results arrived.  Assigned,
// Delivered, Abandoned and Disconnected are counted just after the
// write, hand-off or requeue they record, so they can trail a result its
// submitter already holds.
type Stats struct {
	Submitted    int64 // tasks Submit queued, one still waiting for a slot included
	Completed    int64 // tasks finished successfully
	Failed       int64 // tasks finished with an application error (or abandoned)
	Reassigned   int64 // tasks requeued after their worker was lost
	Expired      int64 // leases that ran out, each dropping its worker (a subset of Disconnected)
	Stale        int64 // late/duplicate results discarded
	Abandoned    int64 // tasks failed after MaxAttempts leases were lost (subset of Failed)
	Assigned     int64 // assignments written to workers, reassignments included
	Delivered    int64 // worker results handed to their submitters
	Registered   int64 // worker registrations accepted
	Disconnected int64 // registered workers whose connection was torn down
	Workers      int64 // workers currently connected: Registered − Disconnected
	QueueWaits   int64 // enqueues that blocked on a full pending queue (backpressure)
	Pending      int64 // tasks waiting in the pending queue (a gauge)
}

// queueDepth bounds the scheduler's pending queue.  A submitter that
// finds it full blocks, and Stats.QueueWaits counts the wait.  A paper
// campaign puts at most one wave of five runs × 100 individuals in
// flight, so 4096 only pushes back on a submitter far beyond that.
const queueDepth = 4096

// lease tracks one in-flight assignment: which task a worker is holding
// and until when the scheduler believes it.  Heartbeats renew the
// deadline; a lease that runs out drops the worker, whose connection
// stays up only while it hangs, and its task goes back to the queue.
type lease struct {
	t        *task
	started  time.Time
	deadline time.Time   // guarded by workerProxy.mu
	timer    *time.Timer // runs expire at the deadline; nil unless TaskTimeout > 0
}

// Scheduler queues the tasks its own process submits and leases them to
// the workers that connect to it.
type Scheduler struct {
	// MaxAttempts bounds how many of a task's workers may be lost, by a
	// disconnect or a lease that ran out, before it fails (default 3).
	MaxAttempts int
	// TaskTimeout, if positive, is the lease duration for one assignment:
	// how long a worker may hold a task without completing it or
	// heartbeating before the scheduler drops the worker and hands the
	// task to someone else.  It guards against nodes that hang without
	// dropping their connection — a hardware failure mode the paper's
	// §2.2.4 lists.  The lease is the shorter limit, a liveness check
	// that a working node's heartbeats keep renewing, as Dask's
	// worker-ttl is; the execution cap is the worker's own
	// (Worker.TaskTimeout).  ListenLocalCluster arms LeaseTimeout.
	TaskTimeout time.Duration
	// Logf, if non-nil, receives diagnostic output.
	Logf func(format string, args ...interface{})

	ln  net.Listener
	seq atomic.Uint64 // last task id handed out
	// pending is the dispatch queue: one bounded FIFO channel.  Workers
	// with no task wait in idle, longest-idle first, so load spreads
	// round-robin and a worker that just answered rejoins behind every
	// idle one.  kick pairs the two under idleMu.
	pending chan *task
	idleMu  sync.Mutex
	idle    []*workerProxy // guarded by idleMu
	nIdle   atomic.Int64   // len(idle), which enqueue reads without idleMu
	stats   Stats
	wire    wireCounters
	wg      sync.WaitGroup
	closed  chan struct{}
	once    sync.Once

	workersMu sync.Mutex
	workers   map[*workerProxy]struct{}

	connsMu sync.Mutex
	conns   map[io.ReadWriteCloser]struct{}
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
		conns:       make(map[io.ReadWriteCloser]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the address workers dial.
func (s *Scheduler) Addr() string { return s.ln.Addr().String() }

// Stats returns a snapshot of activity counters.  Completed + Failed <=
// Submitted in every snapshot, and Completed + Failed == Submitted at
// every instant a submitter can observe once it holds the results of all
// its tasks: a task is counted before its result is published, and
// Submitted is loaded after the two counters it bounds.  Likewise
// Disconnected is loaded before the Registered it bounds, so Workers is
// never negative.
func (s *Scheduler) Stats() Stats {
	completed := atomic.LoadInt64(&s.stats.Completed)
	failed := atomic.LoadInt64(&s.stats.Failed)
	disconnected := atomic.LoadInt64(&s.stats.Disconnected)
	registered := atomic.LoadInt64(&s.stats.Registered)
	return Stats{
		Submitted:    atomic.LoadInt64(&s.stats.Submitted),
		Completed:    completed,
		Failed:       failed,
		Reassigned:   atomic.LoadInt64(&s.stats.Reassigned),
		Expired:      atomic.LoadInt64(&s.stats.Expired),
		Stale:        atomic.LoadInt64(&s.stats.Stale),
		Abandoned:    atomic.LoadInt64(&s.stats.Abandoned),
		Assigned:     atomic.LoadInt64(&s.stats.Assigned),
		Delivered:    atomic.LoadInt64(&s.stats.Delivered),
		Registered:   registered,
		Disconnected: disconnected,
		Workers:      registered - disconnected,
		QueueWaits:   atomic.LoadInt64(&s.stats.QueueWaits),
		Pending:      int64(len(s.pending)),
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
// Every Submit still waiting returns an error, and worker connections are
// force-closed; TCP workers re-dial until a new scheduler comes up on
// the address, while an in-process worker's dial is refused from now on.
// The scheduler holds no durable state: a campaign's is its submitter's.
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

// dial connects an in-process worker over an in-memory connection whose
// far end goes to handleConn, as acceptLoop's do.  Close marks s.closed
// before it takes connsMu, so a dial that finds it unmarked under connsMu
// adds to wg before Close reaches its Wait, and later dials are refused.
func (s *Scheduler) dial() (io.ReadWriteCloser, error) {
	near, far := memConnPair()
	s.connsMu.Lock()
	defer s.connsMu.Unlock()
	select {
	case <-s.closed:
		return nil, errClosed
	default:
	}
	s.wg.Add(1)
	go s.handleConn(far)
	return near, nil
}

// handleConn is a connection's only goroutine.  It reads the peer's
// register frame and then, for the life of the connection, its results
// and heartbeats, so an idle worker's disconnect is seen as soon as a
// busy one's; after each result it leases the worker its next task.  A
// worker that dies mid-task, or whose lease runs out, gets its lease
// requeued — the scheduler "reassigning tasks to other workers" after a
// node failure, with nannies disabled (§2.2.5).  A frame that fails to
// decode, including a foreign peer whose first bytes are not wire.Magic
// or a frame of a retired type, costs only this connection: the codec
// counts the error, the handler returns, and the campaign carries on
// over the surviving connections.
func (s *Scheduler) handleConn(conn io.ReadWriteCloser) {
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
	if first.Type != wire.TypeRegister {
		s.logf("cluster: unexpected first message %q", first.Type)
		return
	}
	// No register flag is defined.  A peer that sets one (a retired
	// worker's want-snapshot request or multiplexing hello) expects a
	// protocol this scheduler does not speak: refuse it rather than serve
	// a phantom worker whose first task is lost to a decode error.
	if first.Flags != 0 {
		s.logf("cluster: refusing register from %q with unknown flags %#x", first.Name, first.Flags)
		return
	}
	w := &workerProxy{s: s, conn: conn, cd: cd, name: first.Name}
	atomic.AddInt64(&s.stats.Registered, 1)
	s.workersMu.Lock()
	s.workers[w] = struct{}{}
	s.workersMu.Unlock()
	s.logf("cluster: worker %q connected", w.name)
	defer func() {
		conn.Close() // before retire: no assign written from now on reaches the worker
		w.retire()
		s.workersMu.Lock()
		delete(s.workers, w)
		s.workersMu.Unlock()
		atomic.AddInt64(&s.stats.Disconnected, 1)
		s.logf("cluster: worker %q disconnected", w.name)
	}()
	// The ack goes out before the first assignment, and after the
	// registration is counted: a worker that holds it is in Stats.Workers.
	if err := cd.write(&message{Type: wire.TypeRegistered}); err != nil {
		return
	}
	s.kick(w)
	for {
		m, err := cd.read()
		if err != nil {
			return
		}
		if w.handle(m) {
			s.kick(w)
		}
	}
}

// WorkerStats is a snapshot of one connected worker's activity, the
// per-node view behind the aggregate Stats counters.
type WorkerStats struct {
	Name      string
	Completed int64         // results delivered from this worker
	Failed    int64         // application-error results from this worker
	Stale     int64         // late/duplicate results discarded
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
	return fmt.Sprintf("worker %q: completed=%d failed=%d stale=%d inflight=%d avg_latency=%v",
		ws.Name, ws.Completed, ws.Failed, ws.Stale, ws.InFlight, avg.Round(time.Millisecond))
}

// workerProxy is the scheduler-side state of one worker connection: the
// connection itself, the lease the worker holds, if any, and its
// activity counters.
type workerProxy struct {
	s    *Scheduler
	conn io.ReadWriteCloser
	cd   *codec
	name string

	wmu sync.Mutex // serializes assign writes, which come from whoever leased the task

	mu sync.Mutex
	l  *lease // nil while the worker idles
	ws WorkerStats
}

func (w *workerProxy) snapshot() WorkerStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	ws := w.ws
	ws.Name = w.name
	if w.l != nil {
		ws.InFlight = 1
	}
	return ws
}

// handle applies one frame from the worker and reports whether it freed
// the worker for its next task: a result for the lease it holds, which
// is delivered unless Close already claimed the task.  A result for a
// task the worker does not hold, a duplicate, is counted Stale; a
// result sent after the worker's lease ran out never arrives, as the
// connection it would come over is closed.
func (w *workerProxy) handle(m *message) bool {
	s := w.s
	if m.Type != wire.TypeResult && m.Type != wire.TypeHeartbeat {
		s.logf("cluster: worker %q sent unexpected %q; ignoring", w.name, m.Type)
	}
	now := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.ws.LastSeen = now
	l := w.l
	held := l != nil && l.t.id == m.TaskID
	if m.Type != wire.TypeResult {
		if held && l.timer != nil && m.Type == wire.TypeHeartbeat {
			l.deadline = now.Add(s.TaskTimeout)
		}
		return false
	}
	if held {
		w.l = nil
		l.stop()
		counter, n := &s.stats.Completed, &w.ws.Completed
		if m.Err != "" {
			counter, n = &s.stats.Failed, &w.ws.Failed
		}
		if l.t.complete(m, counter) {
			*n++
			w.ws.Latency += now.Sub(l.started)
			atomic.AddInt64(&s.stats.Delivered, 1)
			return true
		}
	}
	atomic.AddInt64(&s.stats.Stale, 1)
	w.ws.Stale++
	return held
}

// kick pairs idle workers with queued tasks, longest-idle worker with
// oldest task, until one side runs out.  A non-nil w, just registered or
// just answered, first joins the back of the idle list; only its read
// loop passes it, so never after retire.  Each side re-checks the other
// after its own change: a worker polls the queue after joining idle, and
// enqueue kicks after queuing whenever nIdle is non-zero, so no task
// waits while a worker idles.  Whoever makes a pair writes its assign
// frame, with idleMu dropped.
func (s *Scheduler) kick(w *workerProxy) {
	s.idleMu.Lock()
	if w != nil {
		s.idle = append(s.idle, w)
		s.nIdle.Add(1)
	}
	for len(s.idle) > 0 {
		var t *task
		select {
		case t = <-s.pending:
		default:
		}
		if t == nil {
			break
		}
		head := s.idle[0]
		s.unidle(0)
		l := head.lease(t)
		s.idleMu.Unlock()
		head.assign(l)
		s.idleMu.Lock()
	}
	s.idleMu.Unlock()
}

// unidle removes the i'th idle worker; the caller holds idleMu.
func (s *Scheduler) unidle(i int) {
	n := i + copy(s.idle[i:], s.idle[i+1:])
	s.idle[n] = nil
	s.idle = s.idle[:n]
	s.nIdle.Add(-1)
}

// lease starts the worker's lease on t.  Only when leases time out does
// it arm an expiry timer, outside w.mu (expire takes it) but before the
// assign frame goes out, so before any heartbeat can move the deadline.
func (w *workerProxy) lease(t *task) *lease {
	l := &lease{t: t, started: time.Now()}
	w.mu.Lock()
	w.l = l
	w.mu.Unlock()
	if d := w.s.TaskTimeout; d > 0 {
		timer := time.AfterFunc(d, func() { w.expire(l) })
		w.mu.Lock()
		l.deadline, l.timer = l.started.Add(d), timer
		w.mu.Unlock()
	}
	return l
}

func (l *lease) stop() {
	if l.timer != nil {
		l.timer.Stop()
	}
}

// assign writes l's assign frame.  A write that fails closes the
// connection, so the read loop ends and its retire requeues the task.
func (w *workerProxy) assign(l *lease) {
	w.wmu.Lock()
	err := w.cd.write(&message{Type: wire.TypeAssign, TaskID: l.t.id, Payload: l.t.payload})
	w.wmu.Unlock()
	if err != nil {
		w.s.logf("cluster: assigning task %s to worker %q: %v", l.t.id, w.name, errors.Join(err, w.conn.Close()))
		return
	}
	atomic.AddInt64(&w.s.stats.Assigned, 1)
}

// expire runs at l's deadline.  If a heartbeat moved the deadline it
// re-arms.  Otherwise the worker has sent nothing for a whole lease and
// cannot be told from a hung one, so expire closes its connection, as
// Dask removes a worker past its worker-ttl: the read loop ends, and its
// retire requeues the task and drops the worker for good.
func (w *workerProxy) expire(l *lease) {
	w.mu.Lock()
	if w.l != l {
		w.mu.Unlock()
		return // answered, or the connection is gone
	}
	if d := time.Until(l.deadline); d > 0 {
		l.timer.Reset(d)
		w.mu.Unlock()
		return
	}
	w.mu.Unlock()
	atomic.AddInt64(&w.s.stats.Expired, 1)
	w.s.logf("cluster: worker %q silent for a whole lease on task %s; dropping it", w.name, l.t.id)
	//lint:ignore errdiscard the drop is the read loop's retire; a close error changes nothing it does
	w.conn.Close()
}

// retire runs once the worker's read loop has ended, whether the peer
// went away or expire closed the connection: the worker leaves the idle
// list for good, so no lease starts on it again, and the task it held,
// if any, is requeued — unless the scheduler is closing, in which case
// the task's Submit returns on the same close.
func (w *workerProxy) retire() {
	s := w.s
	s.idleMu.Lock()
	for i, v := range s.idle {
		if v == w {
			s.unidle(i)
			break
		}
	}
	s.idleMu.Unlock()
	w.mu.Lock()
	l := w.l
	w.l = nil
	w.mu.Unlock()
	if l == nil {
		return
	}
	l.stop()
	select {
	case <-s.closed:
	default:
		s.requeue(l.t)
	}
}

// requeue puts a task back on the queue after its worker was lost, or
// fails it permanently once attempts are exhausted.
func (s *Scheduler) requeue(t *task) {
	if t.isDone() {
		return
	}
	t.attempts++
	if t.attempts >= s.MaxAttempts {
		if t.complete(&message{Type: wire.TypeResult, TaskID: t.id, Err: "cluster: task abandoned after repeated worker failures"}, &s.stats.Failed) {
			atomic.AddInt64(&s.stats.Abandoned, 1)
		}
		return
	}
	atomic.AddInt64(&s.stats.Reassigned, 1)
	// An enqueue that fails means the scheduler closed; dropping the task
	// is deliberate — its Submit returns on the same close.
	//lint:ignore errdiscard the only failure is Close, which Submit reports to the task's caller
	_ = s.enqueue(context.Background(), t)
}

var errClosed = errors.New("cluster: scheduler closed")

// enqueue puts t on the pending queue, blocking while the queue is full;
// a submission that has to wait is counted once in Stats.QueueWaits.  It
// fails if the scheduler closed, or ctx ended, before a slot freed.
// Once t is queued it kicks any idle worker.
func (s *Scheduler) enqueue(ctx context.Context, t *task) error {
	select {
	case <-s.closed:
		return errClosed
	case <-ctx.Done():
		return ctx.Err()
	default:
	}
	select {
	case s.pending <- t:
	default:
		atomic.AddInt64(&s.stats.QueueWaits, 1)
		select {
		case s.pending <- t:
		case <-s.closed:
			return errClosed
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if s.nIdle.Load() > 0 {
		s.kick(nil)
	}
	return nil
}

// Submit queues one task and blocks until its result arrives, ctx ends,
// or the scheduler closes; a worker's application error comes back as
// the error.  The payloads are opaque bytes, passed through unread.
// Stats.Submitted counts the task only if it reached the queue: the
// count goes up before the enqueue, so it never trails the result
// counters, and comes back down if the enqueue gives up.  A
// caller whose ctx ends stops waiting, but its queued task still runs
// and is counted once; Close claims the task of every caller still
// waiting as Failed, so the books balance either way.
func (s *Scheduler) Submit(ctx context.Context, payload []byte) ([]byte, error) {
	t := &task{id: strconv.FormatUint(s.seq.Add(1), 10), payload: payload, res: make(chan *message, 1)}
	atomic.AddInt64(&s.stats.Submitted, 1)
	if err := s.enqueue(ctx, t); err != nil {
		atomic.AddInt64(&s.stats.Submitted, -1)
		return nil, err
	}
	var m *message
	select {
	case m = <-t.res:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-s.closed:
		if t.complete(&message{Type: wire.TypeResult, TaskID: t.id, Err: errClosed.Error()}, &s.stats.Failed) {
			return nil, errClosed
		}
		m = <-t.res // a result won the race
	}
	if m.Err != "" {
		return nil, errors.New(m.Err)
	}
	return m.Payload, nil
}

// String describes the scheduler state for diagnostics.
func (s *Scheduler) String() string {
	st := s.Stats()
	return fmt.Sprintf("Scheduler{addr=%s workers=%d submitted=%d completed=%d failed=%d reassigned=%d expired=%d stale=%d queue_waits=%d pending=%d}",
		s.Addr(), st.Workers, st.Submitted, st.Completed, st.Failed, st.Reassigned, st.Expired, st.Stale, st.QueueWaits, st.Pending)
}
