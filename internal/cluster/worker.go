package cluster

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/cluster/wire"
	"repro/internal/ea"
)

// Handler executes one task payload and returns a result payload.  In the
// paper's deployment this is the multi-step DeePMD training workflow of
// §2.2.4 (decode genome → write input.json in a UUID directory → train →
// read lcurve.out).  To the scheduler and the worker a payload is opaque
// bytes; EvalHandler and Evaluator define what an evaluation payload
// holds (payload.go).
type Handler func(ctx context.Context, payload []byte) ([]byte, error)

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
	// TaskTimeout, if positive, bounds each task's execution, as
	// ea.PaperEvalTimeout bounds a training in the paper.  The limit is
	// enforced asynchronously: at the deadline a watcher sends the
	// timeout failure and serves the connection on from its own
	// goroutine, while a handler that ignores its context keeps the
	// goroutine it runs on, which exits once the handler returns without
	// writing, so a wedged handler cannot wedge the worker.
	TaskTimeout time.Duration
	// Heartbeat, if positive, is the interval at which the worker pings
	// the scheduler while executing a task, renewing the task's lease
	// (one ticker goroutine per connection).  A leasing scheduler drops a
	// worker whose lease (Scheduler.TaskTimeout) went without a heartbeat
	// and gives its task to another, so a worker whose tasks outlast the
	// lease must heartbeat: HeartbeatInterval fits LeaseHeartbeats times
	// into LeaseTimeout.
	Heartbeat time.Duration
	// ReconnectInitial is the first re-dial delay after a scheduler
	// connection loss (default 50ms); the backoff doubles it up to 5s.
	ReconnectInitial time.Duration
	// MaxReconnects, if positive, bounds consecutive failed re-dial
	// attempts before Run gives up; 0 retries until the context is
	// cancelled or Close is called.
	MaxReconnects int
	// Handler executes tasks.
	Handler Handler
	// Logf, if non-nil, receives diagnostic output.
	Logf func(format string, args ...interface{})

	dial func() (io.ReadWriteCloser, error)
	wire wireCounters

	mu     sync.Mutex // guards conn, cd, closed
	conn   io.ReadWriteCloser
	cd     *codec
	closed bool

	// wmu serializes session writes (results, timeout answers and
	// heartbeats come from different goroutines) and guards session.running.
	wmu sync.Mutex
}

// NewWorker dials the scheduler at addr over TCP and registers.
func NewWorker(addr, name string, handler Handler) (*Worker, error) {
	return newWorker(name, handler, func() (io.ReadWriteCloser, error) { return net.Dial("tcp", addr) })
}

// newWorker registers a worker over the connection dial opens, and
// re-dials through it after a connection loss.
func newWorker(name string, handler Handler, dial func() (io.ReadWriteCloser, error)) (*Worker, error) {
	if handler == nil {
		return nil, fmt.Errorf("cluster: worker needs a handler")
	}
	w := &Worker{Name: name, Handler: handler, dial: dial}
	conn, cd, err := w.dialAndRegister()
	if err != nil {
		return nil, err
	}
	w.conn, w.cd = conn, cd
	return w, nil
}

// dialAndRegister dials, registers, and waits for the scheduler's
// acknowledgement, so a worker pointed at anything but a scheduler of
// this format fails here rather than on its first task.
func (w *Worker) dialAndRegister() (io.ReadWriteCloser, *codec, error) {
	conn, err := w.dial()
	if err != nil {
		return nil, nil, err
	}
	cd := newCodec(conn, &w.wire)
	if err := cd.write(&message{Type: wire.TypeRegister, Name: w.Name}); err != nil {
		//lint:ignore errdiscard best-effort close of a half-registered conn; the register error is returned
		conn.Close()
		return nil, nil, err
	}
	first, err := cd.read()
	if err != nil {
		//lint:ignore errdiscard best-effort close of a half-registered conn; the read error is returned
		conn.Close()
		return nil, nil, fmt.Errorf("cluster: reading register ack: %w", err)
	}
	if first.Type != wire.TypeRegistered {
		//lint:ignore errdiscard best-effort close of a conn that broke protocol; the type error is returned
		conn.Close()
		return nil, nil, fmt.Errorf("cluster: expected register ack, got %q", first.Type)
	}
	return conn, cd, nil
}

// Wire returns a snapshot of the worker's transport counters across all
// connections it has dialed.
func (w *Worker) Wire() WireStats { return w.wire.snapshot() }

func (w *Worker) logf(format string, args ...interface{}) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

func (w *Worker) current() (io.ReadWriteCloser, *codec) {
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
// is the scheduler's to reassign).  It returns nil on clean shutdown,
// even while a handler ignores the cancellation, or the terminating error
// once MaxReconnects consecutive re-dials fail.
func (w *Worker) Run(ctx context.Context) error {
	unwatch := context.AfterFunc(ctx, func() { w.closeConn() })
	defer unwatch()

	bo := newBackoff(w.ReconnectInitial, 0) // 0: the 5s default ceiling
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
		s := &session{cd: cd, done: make(chan struct{})}
		go w.serve(ctx, s)
		if w.Heartbeat > 0 {
			go w.heartbeat(ctx, s)
		}
		select {
		case <-s.done:
		case <-ctx.Done():
			return nil // a handler still running writes nothing when it returns
		}
		if ctx.Err() != nil || w.isClosed() {
			return nil
		}
		w.logf("cluster: worker %q lost scheduler connection: %v; reconnecting", w.Name, s.err)
		w.closeConn()
	}
}

// reconnect re-dials the scheduler with backoff until it succeeds, the
// context is cancelled, Close is called, or MaxReconnects consecutive
// attempts fail.
func (w *Worker) reconnect(ctx context.Context, bo *backoff) (io.ReadWriteCloser, *codec, error) {
	attempts := 0
	for {
		if ctx.Err() != nil || w.isClosed() {
			return nil, nil, nil
		}
		conn, cd, err := w.dialAndRegister()
		if err == nil {
			w.mu.Lock()
			if w.closed {
				w.mu.Unlock()
				//lint:ignore errdiscard best-effort: the worker was closed while dialing; the fresh conn is discarded unused
				conn.Close()
				return nil, nil, nil
			}
			w.conn, w.cd = conn, cd
			w.mu.Unlock()
			if ctx.Err() != nil {
				// The cancellation watcher may have fired before w.conn was
				// set; make sure a late dial never leaves a live connection.
				w.closeConn()
				return nil, nil, nil
			}
			bo.reset()
			w.logf("cluster: worker %q reconnected", w.Name)
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

// session is one connection's task loop.  One goroutine at a time
// serves it, running each task it reads on itself; the serving goroutine
// whose read or write fails records why and closes done.
type session struct {
	cd      *codec
	running string // the task to heartbeat, "" once answered; guarded by Worker.wmu
	err     error  // why the session ended; set before done is closed
	done    chan struct{}
}

func (s *session) end(err error) {
	s.err = err
	close(s.done)
}

// serve reads assignments off s and runs each on this goroutine, until
// the connection fails, the worker shuts down, or a TaskTimeout watcher
// takes the session over.
func (w *Worker) serve(ctx context.Context, s *session) {
	for {
		m, err := s.cd.read()
		if err != nil {
			s.end(err)
			return
		}
		if m.Type != wire.TypeAssign {
			w.logf("cluster: worker %q got unexpected message %q; ignoring", w.Name, m.Type)
			continue
		}
		if !w.execute(ctx, s, m) {
			return
		}
	}
}

// execute runs one task on the calling goroutine with timeout
// enforcement and panic containment, and answers it.  It reports whether
// the caller still serves s: not once a write fails, the worker shuts
// down, or the TaskTimeout watcher answered in the handler's place.
func (w *Worker) execute(ctx context.Context, s *session, m *message) bool {
	w.wmu.Lock()
	s.running = m.TaskID
	w.wmu.Unlock()
	taskCtx, stop := ctx, func() bool { return true }
	if w.TaskTimeout > 0 {
		var cancel context.CancelFunc
		taskCtx, cancel = context.WithTimeout(ctx, w.TaskTimeout)
		defer cancel()
		// The watcher answers a task still running at its deadline and
		// serves s on from its own goroutine, leaving the handler the one
		// it holds, which returns once the handler does without touching
		// s.  What stop reports is the one flag that decides who answers.
		stop = context.AfterFunc(taskCtx, func() {
			if w.answer(s, w.taskResult(ctx, taskCtx, m.TaskID, nil, nil)) {
				w.logf("cluster: worker %q abandoned task %s after %v", w.Name, m.TaskID, w.TaskTimeout)
				w.serve(ctx, s)
			}
		})
	}
	out, err := safeHandle(taskCtx, w.Handler, m.Payload)
	return stop() && w.answer(s, w.taskResult(ctx, taskCtx, m.TaskID, out, err))
}

// answer writes res, unless it is nil (the worker is shutting down), and
// ends the task's heartbeats in the same step, so none can follow it.  It
// reports whether s is still served.
func (w *Worker) answer(s *session, res *message) bool {
	if res == nil {
		return false
	}
	w.wmu.Lock()
	s.running = ""
	err := s.cd.write(res)
	w.wmu.Unlock()
	if err != nil {
		s.end(err)
	}
	return err == nil
}

// heartbeat renews the running task's lease every Heartbeat until the
// session ends or the worker shuts down: one goroutine per connection,
// none per task.
func (w *Worker) heartbeat(ctx context.Context, s *session) {
	ticker := time.NewTicker(w.Heartbeat)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			w.wmu.Lock()
			if s.running != "" {
				// A failed write surfaces on the serving goroutine's next read.
				_ = s.cd.write(&message{Type: wire.TypeHeartbeat, TaskID: s.running})
			}
			w.wmu.Unlock()
		case <-s.done:
			return
		case <-ctx.Done():
			return
		}
	}
}

// taskResult turns a handler's outcome into the task's result message,
// or nil when the worker is shutting down, so Ctrl-C is never reported
// as a task failure.  A task past its deadline reads as the timeout
// whatever its handler returned, the answer the watcher gives too.
func (w *Worker) taskResult(ctx, taskCtx context.Context, id string, out []byte, err error) *message {
	switch {
	case ctx.Err() != nil:
		return nil
	case taskCtx.Err() != nil:
		return &message{Type: wire.TypeResult, TaskID: id, Err: fmt.Sprintf("%v after %v", ea.ErrEvalTimeout, w.TaskTimeout)}
	case err != nil:
		return &message{Type: wire.TypeResult, TaskID: id, Err: err.Error()}
	}
	return &message{Type: wire.TypeResult, TaskID: id, Payload: out}
}

func safeHandle(ctx context.Context, h Handler, payload []byte) (out []byte, err error) {
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
