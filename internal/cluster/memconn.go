package cluster

import (
	"io"
	"net"
	"sync"
)

// memConn is one end of the in-memory connection an in-process worker
// holds in place of a loopback socket.  Unlike net.Pipe's, its Write
// never waits for the reader, so no frame costs a hand-off between the
// two ends' goroutines: net.Pipe in its place slows the served surrogate
// workloads' gen_wall_ms by 13–22 % on two cores (EXPERIMENTS.md).
type memConn struct{ in, out *memPipe }

// memPipe is one direction: the bytes written and not yet read, and the
// error reads return once those are drained.
type memPipe struct {
	mu    sync.Mutex
	ready sync.Cond // signalled when buf grows or err is set
	buf   []byte
	err   error
}

func memConnPair() (*memConn, *memConn) {
	ab, ba := &memPipe{}, &memPipe{}
	ab.ready.L, ba.ready.L = &ab.mu, &ba.mu
	return &memConn{in: ba, out: ab}, &memConn{in: ab, out: ba}
}

// Read blocks until bytes arrive or either end closes.
func (c *memConn) Read(b []byte) (int, error) {
	p := c.in
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.buf) == 0 && p.err == nil {
		p.ready.Wait()
	}
	if len(p.buf) == 0 {
		return 0, p.err
	}
	n := copy(b, p.buf)
	p.buf = p.buf[:copy(p.buf, p.buf[n:])]
	return n, nil
}

func (c *memConn) Write(b []byte) (int, error) {
	p := c.out
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return 0, io.ErrClosedPipe
	}
	p.buf = append(p.buf, b...)
	p.ready.Signal()
	return len(b), nil
}

// Close wakes both ends.  As with a socket, the peer reads what this end
// wrote and then io.EOF, while this end's reads fail at once with
// net.ErrClosed, which the decoder does not count as a truncated frame.
func (c *memConn) Close() error {
	c.in.shut(net.ErrClosed, true)
	c.out.shut(io.EOF, false)
	return nil
}

func (p *memPipe) shut(err error, own bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if own {
		p.buf, p.err = nil, err
	} else if p.err == nil {
		p.err = err
	}
	p.ready.Broadcast()
}
