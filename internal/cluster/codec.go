package cluster

import (
	"bufio"
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/cluster/wire"
)

// WireStats is a snapshot of one endpoint's transport counters: frames
// and bytes in each direction, decode failures (corrupt, truncated,
// oversized or foreign frames — each one also cost the connection it
// arrived on), and how many connections were opened.
type WireStats struct {
	FramesIn     int64
	FramesOut    int64
	BytesIn      int64
	BytesOut     int64
	DecodeErrors int64
	Conns        int64 // connections accepted or dialed
}

// String renders a one-line summary for stats dumps.
func (ws WireStats) String() string {
	return fmt.Sprintf("wire: frames_in=%d frames_out=%d bytes_in=%d bytes_out=%d decode_errors=%d conns=%d",
		ws.FramesIn, ws.FramesOut, ws.BytesIn, ws.BytesOut, ws.DecodeErrors, ws.Conns)
}

// wireCounters is the shared atomic backing for WireStats; one lives on
// the scheduler (aggregated across every connection) and one on each
// worker.
type wireCounters struct {
	framesIn, framesOut atomic.Int64
	bytesIn, bytesOut   atomic.Int64
	decodeErrors        atomic.Int64
	conns               atomic.Int64
}

func (c *wireCounters) snapshot() WireStats {
	return WireStats{
		FramesIn:     c.framesIn.Load(),
		FramesOut:    c.framesOut.Load(),
		BytesIn:      c.bytesIn.Load(),
		BytesOut:     c.bytesOut.Load(),
		DecodeErrors: c.decodeErrors.Load(),
		Conns:        c.conns.Load(),
	}
}

// codec frames protocol messages over one connection with the binary
// wire protocol (internal/cluster/wire).  Read and write state are
// independent, so one goroutine may read while another writes (a worker
// proxy's reader and its dispatcher); two concurrent writers or readers
// must be serialized by the caller, which matches the discipline
// net.Conn already demands.  The scratch wire.Messages are reused
// frame after frame; retained fields are copied out of the decoder's
// buffer in fromWire, which is where the per-message allocation cost of
// the cluster plane lives (the wire codec beneath it is allocation-free).
type codec struct {
	enc *wire.Encoder
	dec *wire.Decoder
	c   *wireCounters
	wm  wire.Message // write-side scratch
	rm  wire.Message // read-side scratch
}

// newCodec counts a connection — accepted by the scheduler or dialed by
// a worker alike — and returns its codec.
func newCodec(conn io.ReadWriter, c *wireCounters) *codec {
	c.conns.Add(1)
	br := bufio.NewReaderSize(countingReader{conn, &c.bytesIn}, 16<<10)
	return &codec{enc: wire.NewEncoder(conn), dec: wire.NewDecoder(br), c: c}
}

func (cd *codec) write(m *message) error {
	toWire(m, &cd.wm)
	n, err := cd.enc.Encode(&cd.wm)
	cd.c.bytesOut.Add(int64(n))
	if err != nil {
		return err
	}
	cd.c.framesOut.Add(1)
	return nil
}

// read decodes the next frame.  A frame that fails to decode — corrupt,
// truncated, or not a wire frame at all — is counted, and the error
// ends the caller's use of the connection.
func (cd *codec) read() (*message, error) {
	if err := cd.dec.Decode(&cd.rm); err != nil {
		if wire.IsDecodeError(err) {
			cd.c.decodeErrors.Add(1)
		}
		return nil, err
	}
	cd.c.framesIn.Add(1)
	return fromWire(&cd.rm), nil
}

// toWire fills wm from m, reusing wm's field capacity where possible.
func toWire(m *message, wm *wire.Message) {
	wm.Type = m.Type
	wm.Flags = m.Flags
	wm.TaskID = append(wm.TaskID[:0], m.TaskID...)
	wm.Name = append(wm.Name[:0], m.Name...)
	wm.Err = append(wm.Err[:0], m.Err...)
	wm.Payload = append(wm.Payload[:0], m.Payload...)
	wm.Epoch, wm.Pending = 0, 0
	wm.Leases = wm.Leases[:0]
	if m.Snap != nil {
		wm.Epoch = m.Snap.Epoch
		wm.Pending = uint64(m.Snap.Pending)
		for _, id := range m.Snap.Leases {
			wm.Leases = append(wm.Leases, []byte(id))
		}
	}
}

// fromWire converts a decoded frame into a fresh message, copying every
// retained field out of the decoder's reused buffer.
func fromWire(wm *wire.Message) *message {
	m := &message{
		Type:   wm.Type,
		Flags:  wm.Flags,
		TaskID: string(wm.TaskID),
		Name:   string(wm.Name),
		Err:    string(wm.Err),
	}
	if len(wm.Payload) > 0 {
		m.Payload = append([]byte(nil), wm.Payload...)
	}
	if wm.Type == wire.TypeSnapshot {
		snap := &Snapshot{Epoch: wm.Epoch, Pending: int(wm.Pending)}
		for _, id := range wm.Leases {
			snap.Leases = append(snap.Leases, string(id))
		}
		m.Snap = snap
	}
	return m
}

// countingReader tallies bytes as they arrive off the connection, ahead
// of any buffering, so byte counters reflect the stream itself.
type countingReader struct {
	r io.Reader
	n *atomic.Int64
}

func (cr countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n.Add(int64(n))
	return n, err
}
