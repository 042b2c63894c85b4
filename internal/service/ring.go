package service

import (
	"context"
	"sync"
	"time"
)

// Event is one campaign lifecycle occurrence, delivered to API clients
// by long-poll.  Seq is a per-campaign monotonic sequence number
// (starting at 1) that doubles as the poll cursor: a client asks for
// ?after=<last seq> and gets what came since.  Events live in a bounded
// per-campaign ring and are per-process: sequence numbers reset when the
// service restarts.
type Event struct {
	Seq      uint64    `json:"seq"`
	Time     time.Time `json:"time"`
	Type     string    `json:"type"`
	Campaign string    `json:"campaign"`
	Gen      int       `json:"gen,omitempty"`
	Evals    int       `json:"evals,omitempty"`
	Failures int       `json:"failures,omitempty"`
	Frontier int       `json:"frontier,omitempty"`
	Detail   string    `json:"detail,omitempty"`
}

// Ring is a bounded, broadcast-capable event buffer.  Appends assign
// sequence numbers and evict the oldest events once full; readers poll
// Since for history and block in Next (on a close-on-append channel) for
// new arrivals.  The close-and-replace wake channel gives every blocked
// reader a level-triggered signal with no per-subscriber bookkeeping.
type Ring struct {
	mu    sync.Mutex
	buf   []Event // circular storage
	head  int     // index of the oldest event
	count int
	next  uint64        // sequence number the next Append receives
	wake  chan struct{} // closed and replaced on every Append
}

// NewRing returns a ring holding at most n events (n >= 1).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{buf: make([]Event, n), next: 1, wake: make(chan struct{})}
}

// Append stamps e with the next sequence number, stores it (evicting the
// oldest event when full) and wakes all blocked readers.  The stamped
// event is returned.
func (r *Ring) Append(e Event) Event {
	r.mu.Lock()
	e.Seq = r.next
	r.next++
	tail := (r.head + r.count) % len(r.buf)
	r.buf[tail] = e
	if r.count < len(r.buf) {
		r.count++
	} else {
		r.head = (r.head + 1) % len(r.buf)
	}
	wake := r.wake
	r.wake = make(chan struct{})
	r.mu.Unlock()
	close(wake)
	return e
}

// Since returns, oldest first, every buffered event with Seq > after.
// Events evicted from the ring are silently absent — clients that lag
// more than the buffer size lose the gap, which the bounded-memory
// contract accepts.
func (r *Ring) Since(after uint64) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, r.count)
	for i := 0; i < r.count; i++ {
		e := r.buf[(r.head+i)%len(r.buf)]
		if e.Seq > after {
			out = append(out, e)
		}
	}
	return out
}

// Next blocks until at least one event with Seq > after exists (or ctx
// ends) and returns the batch.  It is the long-poll primitive.  It takes
// the wake channel BEFORE calling Since, so an event appended between
// the two still closes the channel it waits on, even if a later Append
// has already replaced it: no wakeup is lost.
func (r *Ring) Next(ctx context.Context, after uint64) ([]Event, error) {
	for {
		r.mu.Lock()
		wake := r.wake
		r.mu.Unlock()
		if evs := r.Since(after); len(evs) > 0 {
			return evs, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-wake:
		}
	}
}
