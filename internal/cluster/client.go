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
	"repro/internal/uuid"
)

// pendingCall is one submitted task awaiting its result.  The payload is
// retained so the call can be resubmitted after a reconnect: the
// scheduler keeps no durable state, so a client that survives a
// scheduler bounce replays its in-flight work (cf. the paper's stance
// that tasks, not connections, are the unit of reliability, §2.2.5).
type pendingCall struct {
	ch      chan *message
	payload json.RawMessage
}

// Client submits tasks to a scheduler and awaits results, like the Dask
// client running on the Summit batch node (§2.2.5).  It is safe for
// concurrent use, so an EA evaluation pool can fan out submissions.  A
// lost scheduler connection is retried with exponential backoff + jitter
// and all in-flight tasks are resubmitted; Submit callers only see an
// error once reconnection is exhausted (or their context ends).
type Client struct {
	// ReconnectInitial and ReconnectMax shape the re-dial backoff
	// (defaults 50ms and 5s).
	ReconnectInitial time.Duration
	ReconnectMax     time.Duration
	// MaxReconnects bounds consecutive failed re-dial attempts before the
	// client gives up and fails every in-flight call (default 10; set
	// negative to disable reconnection entirely).
	MaxReconnects int
	// Logf, if non-nil, receives diagnostic output.
	Logf func(format string, args ...interface{})

	dialer Dialer
	wire   wireCounters

	mu      sync.Mutex // guards conn/cd writes, waiters, readErr, closed
	conn    net.Conn
	cd      *codec
	waiters map[string]*pendingCall
	readErr error
	closed  bool

	closeCh chan struct{} // closed by Close, aborts reconnect sleeps
	done    chan struct{} // closed when readLoop exits
	once    sync.Once
	start   sync.Once // spawns readLoop on first Submit, so config fields
	// (ReconnectInitial etc.) may be set freely between NewClient and use
}

// NewClient dials the scheduler.
func NewClient(addr string) (*Client, error) {
	return newClient(tcpDialer(addr))
}

func newClient(dialer Dialer) (*Client, error) {
	conn, err := dialer.Dial()
	if err != nil {
		return nil, err
	}
	c := &Client{
		MaxReconnects: 10,
		dialer:        dialer,
		conn:          conn,
		waiters:       make(map[string]*pendingCall),
		closeCh:       make(chan struct{}),
		done:          make(chan struct{}),
	}
	c.cd = newCodec(conn, &c.wire)
	return c, nil
}

// Wire returns a snapshot of the client's transport counters across all
// connections it has dialed.
func (c *Client) Wire() WireStats { return c.wire.snapshot() }

func (c *Client) logf(format string, args ...interface{}) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// readLoop owns reads on the scheduler connection, dispatching results to
// waiters and driving reconnection when the connection fails.
func (c *Client) readLoop() {
	defer close(c.done)
	bo := newBackoff(c.ReconnectInitial, c.ReconnectMax)
	for {
		c.mu.Lock()
		cd := c.cd
		c.mu.Unlock()
		m, err := cd.read()
		if err == nil {
			c.mu.Lock()
			pc, ok := c.waiters[m.TaskID]
			if ok {
				delete(c.waiters, m.TaskID)
			}
			c.mu.Unlock()
			if ok {
				pc.ch <- m
			}
			continue
		}
		if c.isClosed() {
			c.failAll(errors.New("cluster: client closed"))
			return
		}
		if !c.reconnectAndReplay(bo, err) {
			return
		}
	}
}

// reconnectAndReplay re-dials the scheduler and resubmits every in-flight
// task.  It reports whether the read loop should continue.
func (c *Client) reconnectAndReplay(bo *backoff, cause error) bool {
	if c.MaxReconnects < 0 {
		c.failAll(cause)
		return false
	}
	c.logf("cluster: client lost scheduler connection: %v; reconnecting", cause)
	attempts := 0
	for {
		if c.isClosed() {
			c.failAll(errors.New("cluster: client closed"))
			return false
		}
		conn, err := c.dialer.Dial()
		if err == nil {
			if replayErr := c.adopt(conn); replayErr == nil {
				bo.reset()
				return true
			}
			//lint:ignore errdiscard best-effort: the conn is being abandoned because its resubmission replay already failed
			conn.Close()
			err = errors.New("cluster: resubmission failed")
		}
		attempts++
		if c.MaxReconnects > 0 && attempts >= c.MaxReconnects {
			c.failAll(fmt.Errorf("cluster: gave up after %d reconnect attempts: %w", attempts, cause))
			return false
		}
		delay := bo.next()
		c.logf("cluster: client reconnect attempt %d failed (%v); retrying in %v", attempts, err, delay)
		select {
		case <-time.After(delay):
		case <-c.closeCh:
		}
	}
}

// adopt installs a fresh connection and replays every pending call on it.
// Replaying reuses the original task IDs: if the old scheduler somehow
// still completes a copy, the duplicate result finds no waiter and is
// dropped here, and the scheduler-side books stay balanced because each
// submission is its own task.
func (c *Client) adopt(conn net.Conn) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return errors.New("cluster: client closed")
	}
	old := c.conn
	c.conn = conn
	c.cd = newCodec(conn, &c.wire)
	if old != nil && old != conn {
		//lint:ignore errdiscard best-effort: the stale conn was already replaced by the reconnect; its close error is unactionable
		old.Close()
	}
	n := 0
	for id, pc := range c.waiters {
		if err := c.cd.write(&message{Type: wire.TypeSubmit, TaskID: id, Payload: pc.payload}); err != nil {
			return err
		}
		n++
	}
	if n > 0 {
		c.logf("cluster: client reconnected, resubmitted %d in-flight tasks", n)
	} else {
		c.logf("cluster: client reconnected")
	}
	return nil
}

// failAll resolves every waiter with a terminal error.
func (c *Client) failAll(err error) {
	c.mu.Lock()
	c.readErr = err
	for id, pc := range c.waiters {
		close(pc.ch)
		delete(c.waiters, id)
	}
	c.mu.Unlock()
}

func (c *Client) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// Submit sends one task and blocks until its result arrives or the
// context is cancelled.  Application errors from the worker come back as
// non-nil error with nil payload.  A connection loss mid-wait is handled
// transparently by reconnect + resubmit; Submit fails only when the
// client gives up or is closed.
func (c *Client) Submit(ctx context.Context, payload json.RawMessage) (json.RawMessage, error) {
	c.start.Do(func() { go c.readLoop() })
	id := uuid.New().String()
	pc := &pendingCall{ch: make(chan *message, 1), payload: payload}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errors.New("cluster: client closed")
	}
	if c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		return nil, fmt.Errorf("cluster: connection down: %w", err)
	}
	c.waiters[id] = pc
	// A write error is not reported here: the read loop will observe the
	// same broken connection and resubmit this call after reconnecting.
	//lint:ignore errdiscard the read loop observes the same broken conn and resubmits; handling here would double-report
	_ = c.cd.write(&message{Type: wire.TypeSubmit, TaskID: id, Payload: payload})
	c.mu.Unlock()

	select {
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.waiters, id)
		c.mu.Unlock()
		return nil, ctx.Err()
	case m, ok := <-pc.ch:
		if !ok {
			c.mu.Lock()
			err := c.readErr
			c.mu.Unlock()
			if err == nil {
				err = errors.New("cluster: connection closed while waiting for result")
			}
			return nil, err
		}
		if m.Err != "" {
			return nil, errors.New(m.Err)
		}
		return m.Payload, nil
	}
}

// Close terminates the client connection and stops reconnection.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	conn := c.conn
	c.mu.Unlock()
	c.once.Do(func() { close(c.closeCh) })
	// If Submit was never called, the read loop never started; stand in
	// for its exit so the wait below cannot hang.
	c.start.Do(func() { close(c.done) })
	var err error
	if conn != nil {
		err = conn.Close()
	}
	<-c.done // wait for readLoop to drain waiters
	return err
}
