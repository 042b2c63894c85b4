package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/cluster/wire"
)

// Handler executes one task payload and returns a result payload.  In the
// paper's deployment this is the multi-step DeePMD training workflow of
// §2.2.4 (decode genome → write input.json in a UUID directory → train →
// read lcurve.out).
type Handler func(ctx context.Context, payload json.RawMessage) (json.RawMessage, error)

// Worker connects to a scheduler, executes assigned tasks, and returns
// results.  There is intentionally no supervision/restart of the process
// itself: the paper found it best to "disable nannies, let workers fail,
// and have the scheduler reassign tasks" (§2.2.5).  What the worker does
// do is survive the two failure modes that are not its own death: a
// handler that hangs (the task is timed out asynchronously and abandoned,
// the worker stays live) and a scheduler connection loss (the worker
// re-dials with exponential backoff and jitter).
type Worker struct {
	// Name identifies the worker in scheduler logs.
	Name string
	// TaskTimeout, if positive, bounds each task's execution — the
	// analogue of the paper's two-hour training limit.  The limit is
	// enforced asynchronously: a handler that ignores its context is
	// abandoned together with the executor goroutine running it (which
	// exits once the handler returns on its own), a timeout failure
	// result is sent, and the next task starts a fresh executor, so a
	// wedged handler cannot wedge the worker.
	TaskTimeout time.Duration
	// Heartbeat, if positive, is the interval at which the worker pings
	// the scheduler while executing a task, renewing the task's lease.
	// Set it well below the scheduler's TaskTimeout so a slow-but-alive
	// training is not reassigned.
	Heartbeat time.Duration
	// ReconnectInitial and ReconnectMax shape the re-dial backoff after a
	// scheduler connection loss (defaults 50ms and 5s).
	ReconnectInitial time.Duration
	ReconnectMax     time.Duration
	// MaxReconnects, if positive, bounds consecutive failed re-dial
	// attempts before Run gives up; 0 retries until the context is
	// cancelled or Close is called.
	MaxReconnects int
	// Handler executes tasks.
	Handler Handler
	// Logf, if non-nil, receives diagnostic output.
	Logf func(format string, args ...interface{})

	addr string
	wire wireCounters

	mu     sync.Mutex // guards conn, cd, snap, closed
	conn   net.Conn
	cd     *codec
	snap   *Snapshot
	closed bool

	// exec runs handlers; only the goroutine in Run touches it, and that
	// goroutine is also the connection's only writer.
	exec *executor
}

// NewWorker dials the scheduler and registers.
func NewWorker(addr, name string, handler Handler) (*Worker, error) {
	if handler == nil {
		return nil, fmt.Errorf("cluster: worker needs a handler")
	}
	w := &Worker{Name: name, Handler: handler, addr: addr}
	conn, cd, snap, err := w.dialAndRegister()
	if err != nil {
		return nil, err
	}
	w.conn, w.cd, w.snap = conn, cd, snap
	return w, nil
}

// dialAndRegister dials, registers with wire.FlagWantSnapshot, and waits
// for the scheduler's snapshot reply.  Registering mid-campaign therefore
// costs one compact frame — where the campaign stands and which leases
// are outstanding — never a replay of history.
func (w *Worker) dialAndRegister() (net.Conn, *codec, *Snapshot, error) {
	conn, err := net.Dial("tcp", w.addr)
	if err != nil {
		return nil, nil, nil, err
	}
	cd := newCodec(conn, &w.wire)
	if err := cd.write(&message{Type: wire.TypeRegister, Name: w.Name, Flags: wire.FlagWantSnapshot}); err != nil {
		//lint:ignore errdiscard best-effort close of a half-registered conn; the register error is returned
		conn.Close()
		return nil, nil, nil, err
	}
	first, err := cd.read()
	if err != nil {
		//lint:ignore errdiscard best-effort close of a half-registered conn; the read error is returned
		conn.Close()
		return nil, nil, nil, fmt.Errorf("cluster: reading register snapshot: %w", err)
	}
	if first.Type != wire.TypeSnapshot {
		//lint:ignore errdiscard best-effort close of a conn that broke protocol; the type error is returned
		conn.Close()
		return nil, nil, nil, fmt.Errorf("cluster: expected snapshot after register, got %q", first.Type)
	}
	return conn, cd, first.Snap, nil
}

// Snapshot is the compact catch-up state the scheduler sends a worker
// that registers, instead of any history replay: the campaign epoch
// (tasks submitted before it joined), the queue depth at join time, and
// the leases that were outstanding.  Its size is O(in-flight tasks),
// independent of how long the campaign has been running.
type Snapshot struct {
	Epoch   uint64
	Pending int
	Leases  []string
}

// Snapshot returns the catch-up state from the most recent successful
// registration, and whether one has been received.
func (w *Worker) Snapshot() (Snapshot, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.snap == nil {
		return Snapshot{}, false
	}
	snap := *w.snap
	snap.Leases = append([]string(nil), snap.Leases...)
	return snap, true
}

// Wire returns a snapshot of the worker's transport counters across all
// connections it has dialed.
func (w *Worker) Wire() WireStats { return w.wire.snapshot() }

func (w *Worker) logf(format string, args ...interface{}) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

func (w *Worker) current() (net.Conn, *codec) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.conn, w.cd
}

func (w *Worker) isClosed() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.closed
}

// Run processes tasks until the context is cancelled or Close is called.
// A scheduler connection loss is not fatal: Run re-dials with exponential
// backoff + jitter and resumes pulling tasks (the in-flight task, if any,
// is the scheduler's to reassign).  It returns nil on clean shutdown, or
// the terminating error once MaxReconnects consecutive re-dials fail.
func (w *Worker) Run(ctx context.Context) error {
	unwatch := context.AfterFunc(ctx, func() { w.closeConn() })
	defer unwatch()
	defer func() {
		if ex := w.exec; ex != nil {
			w.exec = nil
			ex.stop()
			<-ex.exited // idle between tasks, so it exits at once
		}
	}()

	bo := newBackoff(w.ReconnectInitial, w.ReconnectMax)
	for {
		conn, cd := w.current()
		if conn == nil {
			var err error
			if conn, cd, err = w.reconnect(ctx, bo); err != nil {
				return err
			}
			if conn == nil { // cancelled or closed
				return nil
			}
		}
		err := w.serve(ctx, cd)
		if ctx.Err() != nil || w.isClosed() {
			return nil
		}
		w.logf("cluster: worker %q lost scheduler connection: %v; reconnecting", w.Name, err)
		w.closeConn()
	}
}

// reconnect re-dials the scheduler with backoff until it succeeds, the
// context is cancelled, Close is called, or MaxReconnects consecutive
// attempts fail.
func (w *Worker) reconnect(ctx context.Context, bo *backoff) (net.Conn, *codec, error) {
	attempts := 0
	for {
		if ctx.Err() != nil || w.isClosed() {
			return nil, nil, nil
		}
		conn, cd, snap, err := w.dialAndRegister()
		if err == nil {
			w.mu.Lock()
			if w.closed {
				w.mu.Unlock()
				//lint:ignore errdiscard best-effort: the worker was closed while dialing; the fresh conn is discarded unused
				conn.Close()
				return nil, nil, nil
			}
			w.conn, w.cd, w.snap = conn, cd, snap
			w.mu.Unlock()
			if ctx.Err() != nil {
				// The cancellation watcher may have fired before w.conn was
				// set; make sure a late dial never leaves a live socket.
				w.closeConn()
				return nil, nil, nil
			}
			bo.reset()
			w.logf("cluster: worker %q reconnected to %s (epoch %d, %d leases outstanding)", w.Name, w.addr, snap.Epoch, len(snap.Leases))
			return conn, cd, nil
		}
		attempts++
		if w.MaxReconnects > 0 && attempts >= w.MaxReconnects {
			return nil, nil, fmt.Errorf("cluster: worker %q gave up after %d reconnect attempts: %w", w.Name, attempts, err)
		}
		delay := bo.next()
		w.logf("cluster: worker %q reconnect attempt %d failed (%v); retrying in %v", w.Name, attempts, err, delay)
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return nil, nil, nil
		}
	}
}

// serve pulls assignments from one connection until it fails.
func (w *Worker) serve(ctx context.Context, cd *codec) error {
	for {
		m, err := cd.read()
		if err != nil {
			return err
		}
		if m.Type == wire.TypeSnapshot {
			w.mu.Lock()
			w.snap = m.Snap
			w.mu.Unlock()
			continue
		}
		if m.Type != wire.TypeAssign {
			w.logf("cluster: worker %q got unexpected message %q; ignoring", w.Name, m.Type)
			continue
		}
		result := w.execute(ctx, cd, m)
		if result == nil {
			// Parent context cancelled mid-task: propagate the shutdown
			// instead of fabricating a failure result.
			return context.Canceled
		}
		if err := cd.write(result); err != nil {
			return err
		}
	}
}

// executor is the worker's long-lived handler goroutine.  A task reaches
// it as a closure on jobs, and the closure leaves its outcome in done,
// whose one slot is always free: the worker reads each outcome before it
// sends the next job, or abandons the executor.
type executor struct {
	jobs   chan func()
	done   chan handlerOut
	exited chan struct{}
}

type handlerOut struct {
	payload json.RawMessage
	err     error
}

func newExecutor() *executor {
	ex := &executor{jobs: make(chan func()), done: make(chan handlerOut, 1), exited: make(chan struct{})}
	go ex.run()
	return ex
}

func (ex *executor) run() {
	defer close(ex.exited)
	for job := range ex.jobs {
		job()
	}
}

// stop lets the executor exit once its current handler, if any, returns.
func (ex *executor) stop() { close(ex.jobs) }

// execute runs one task on the executor with timeout enforcement,
// heartbeats and panic containment, waiting in one select for the
// outcome, the next heartbeat and the task's context.  It returns nil
// when the parent context was cancelled (worker shutting down), so that
// Ctrl-C is never misreported as a task timeout.
func (w *Worker) execute(ctx context.Context, cd *codec, m *message) *message {
	taskCtx := ctx
	if w.TaskTimeout > 0 {
		var cancel context.CancelFunc
		taskCtx, cancel = context.WithTimeout(ctx, w.TaskTimeout)
		defer cancel()
	}
	if w.exec == nil {
		w.exec = newExecutor()
	}
	ex := w.exec
	job := func() {
		p, err := safeHandle(taskCtx, w.Handler, m.Payload)
		ex.done <- handlerOut{p, err}
	}
	select {
	case ex.jobs <- job:
	case <-ctx.Done():
		return nil
	}

	var beats <-chan time.Time // nil, and never ready, without a Heartbeat
	if w.Heartbeat > 0 {
		ticker := time.NewTicker(w.Heartbeat)
		defer ticker.Stop()
		beats = ticker.C
	}
	for {
		select {
		case out := <-ex.done:
			return taskResult(ctx, taskCtx, m.TaskID, out)
		case <-beats:
			// A failed heartbeat is not fatal here; the serve loop will
			// see the connection error on its next read or write.
			_ = cd.write(&message{Type: wire.TypeHeartbeat, TaskID: m.TaskID})
		case <-taskCtx.Done():
			// The handler is still running: leave it its executor and
			// start a fresh one for the next task.
			ex.stop()
			w.exec = nil
			if ctx.Err() != nil {
				return nil // shutdown, not a task failure
			}
			// The handler ignored its context; report the timeout so the
			// worker stays live for the next task — a hung handler must
			// not wedge the worker.
			w.logf("cluster: worker %q abandoning task %s after %v (handler ignored context)", w.Name, m.TaskID, w.TaskTimeout)
			return &message{Type: wire.TypeResult, TaskID: m.TaskID,
				Err: fmt.Sprintf("cluster: task timed out after %v", w.TaskTimeout)}
		}
	}
}

// taskResult turns a handler's outcome into the result message, or nil
// when the outcome is the worker's own shutdown.
func taskResult(ctx, taskCtx context.Context, id string, out handlerOut) *message {
	if out.err == nil && taskCtx.Err() != nil {
		// The handler returned success but its deadline had passed;
		// classify by cause rather than blaming every cancellation on
		// the timeout (the old bug recorded Ctrl-C as "task timed out").
		if ctx.Err() != nil {
			return nil
		}
		out.err = fmt.Errorf("cluster: task timed out: %v", taskCtx.Err())
	}
	if out.err != nil && errors.Is(out.err, context.Canceled) && ctx.Err() != nil {
		return nil
	}
	res := &message{Type: wire.TypeResult, TaskID: id}
	if out.err != nil {
		res.Err = out.err.Error()
	} else {
		res.Payload = out.payload
	}
	return res
}

func safeHandle(ctx context.Context, h Handler, payload json.RawMessage) (out json.RawMessage, err error) {
	defer func() {
		if r := recover(); r != nil {
			out = nil
			err = fmt.Errorf("cluster: task panic: %v", r)
		}
	}()
	return h(ctx, payload)
}

// closeConn closes the current connection without marking the worker
// closed, so Run can re-dial.
func (w *Worker) closeConn() {
	w.mu.Lock()
	conn := w.conn
	w.conn, w.cd = nil, nil
	w.mu.Unlock()
	if conn != nil {
		//lint:ignore errdiscard force-drop by design: closing under the reader unblocks it; there is no recovery path for the error
		conn.Close()
	}
}

// Close terminates the worker permanently: the connection is closed and
// Run stops reconnecting.
func (w *Worker) Close() error {
	w.mu.Lock()
	w.closed = true
	conn := w.conn
	w.conn, w.cd = nil, nil
	w.mu.Unlock()
	if conn != nil {
		return conn.Close()
	}
	return nil
}
