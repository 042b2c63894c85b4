package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/cluster/wire"
)

// Transport selects the framing a worker or client speaks to the
// scheduler.  Binary is the default (the zero value): the hand-rolled
// length-prefixed codec in internal/cluster/wire, zero-copy on decode
// and allocation-free in steady state.  JSON is the compatibility
// fallback — the original length-prefixed JSON framing, still accepted
// per connection so mixed fleets can roll over gradually.
//
// The scheduler needs no configuration: it peeks the first byte of each
// accepted connection (binary frames start 0xD5, JSON length prefixes
// are ≤ 0x04) and speaks whatever the peer chose.
type Transport int

const (
	// TransportBinary is the default binary framing (internal/cluster/wire).
	TransportBinary Transport = iota
	// TransportJSON is the length-prefixed JSON fallback framing.
	TransportJSON
)

// String names the transport for flags and logs.
func (t Transport) String() string {
	switch t {
	case TransportBinary:
		return "binary"
	case TransportJSON:
		return "json"
	}
	return fmt.Sprintf("transport(%d)", int(t))
}

// ParseTransport converts a -transport flag value.
func ParseTransport(s string) (Transport, error) {
	switch s {
	case "binary":
		return TransportBinary, nil
	case "json":
		return TransportJSON, nil
	}
	return 0, fmt.Errorf("cluster: unknown transport %q (want binary or json)", s)
}

// WireStats is a snapshot of one endpoint's transport counters: frames
// and bytes in each direction, decode failures (corrupt, truncated or
// oversized frames — each one also cost the connection it arrived on),
// and how many negotiated connections chose each framing.
type WireStats struct {
	FramesIn     int64
	FramesOut    int64
	BytesIn      int64
	BytesOut     int64
	DecodeErrors int64
	BinaryConns  int64 // connections negotiated onto binary framing
	JSONConns    int64 // connections negotiated onto JSON framing
}

// String renders a one-line summary for stats dumps.
func (ws WireStats) String() string {
	return fmt.Sprintf("wire: frames_in=%d frames_out=%d bytes_in=%d bytes_out=%d decode_errors=%d conns_binary=%d conns_json=%d",
		ws.FramesIn, ws.FramesOut, ws.BytesIn, ws.BytesOut, ws.DecodeErrors, ws.BinaryConns, ws.JSONConns)
}

// wireCounters is the shared atomic backing for WireStats; one lives on
// the scheduler (aggregated across every connection) and one on each
// worker and client.
type wireCounters struct {
	framesIn, framesOut    atomic.Int64
	bytesIn, bytesOut      atomic.Int64
	decodeErrors           atomic.Int64
	binaryConns, jsonConns atomic.Int64
}

func (c *wireCounters) snapshot() WireStats {
	return WireStats{
		FramesIn:     c.framesIn.Load(),
		FramesOut:    c.framesOut.Load(),
		BytesIn:      c.bytesIn.Load(),
		BytesOut:     c.bytesOut.Load(),
		DecodeErrors: c.decodeErrors.Load(),
		BinaryConns:  c.binaryConns.Load(),
		JSONConns:    c.jsonConns.Load(),
	}
}

// countConn records one negotiated connection by framing.
func (c *wireCounters) countConn(tr Transport) {
	if tr == TransportBinary {
		c.binaryConns.Add(1)
	} else {
		c.jsonConns.Add(1)
	}
}

// codec frames protocol messages over one connection.  Implementations
// keep independent read and write state, so one goroutine may read while
// another writes (a proxy's reader and its writer); two concurrent
// writers or readers must be serialized by the caller, which matches the
// discipline net.Conn already demands.  writeBatch sends several
// messages with as few writes as the framing allows.
type codec interface {
	write(m *message) error
	writeBatch(ms []*message) error
	read() (*message, error)
}

// newCodec builds the codec for an established connection: r is the
// (possibly buffered) read side, w the raw write side.
func newCodec(tr Transport, r io.Reader, w io.Writer, c *wireCounters) codec {
	if tr == TransportJSON {
		return &jsonCodec{r: r, w: countingWriter{w: w}, c: c}
	}
	return &binCodec{enc: wire.NewEncoder(w), dec: wire.NewDecoder(r), c: c}
}

// dialCodec sets up the codec on the dialing side (worker or client),
// where the transport is chosen by configuration rather than peeked.
func dialCodec(tr Transport, conn io.ReadWriter, c *wireCounters) codec {
	br := bufio.NewReaderSize(countingReader{conn, &c.bytesIn}, 16<<10)
	c.countConn(tr)
	return newCodec(tr, br, conn, c)
}

// jsonCodec is the original framing: 4-byte big-endian length + JSON.
type jsonCodec struct {
	r io.Reader
	w countingWriter
	c *wireCounters
}

func (j *jsonCodec) write(m *message) error {
	j.w.n = 0
	if err := writeMessage(&j.w, m); err != nil {
		j.c.bytesOut.Add(j.w.n)
		return err
	}
	j.c.bytesOut.Add(j.w.n)
	j.c.framesOut.Add(1)
	return nil
}

func (j *jsonCodec) writeBatch(ms []*message) error {
	for _, m := range ms {
		if err := j.write(m); err != nil {
			return err
		}
	}
	return nil
}

func (j *jsonCodec) read() (*message, error) {
	m, err := readMessage(j.r)
	if err != nil {
		if errors.Is(err, errBadFrame) || errors.Is(err, io.ErrUnexpectedEOF) {
			j.c.decodeErrors.Add(1)
		}
		return nil, err
	}
	j.c.framesIn.Add(1)
	return m, nil
}

// countingWriter tallies written bytes for the JSON codec, which frames
// in two Write calls.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// binCodec adapts the wire package to the cluster message type.  The
// scratch wire.Messages keep read and write state independent; retained
// fields are copied out of the decoder's buffer at this boundary, which
// is where the per-message allocation cost of the whole binary path
// lives (the codec beneath it is allocation-free).
type binCodec struct {
	enc *wire.Encoder
	dec *wire.Decoder
	c   *wireCounters
	wm  wire.Message // write-side scratch
	rm  wire.Message // read-side scratch
}

func (b *binCodec) write(m *message) error {
	if err := toWire(m, &b.wm); err != nil {
		return err
	}
	n, err := b.enc.Encode(&b.wm)
	b.c.bytesOut.Add(int64(n))
	if err != nil {
		return err
	}
	b.c.framesOut.Add(1)
	return nil
}

// writeBatch stages every frame and sends them with one write.
func (b *binCodec) writeBatch(ms []*message) error {
	for _, m := range ms {
		if err := toWire(m, &b.wm); err != nil {
			return err
		}
		if err := b.enc.Stage(&b.wm); err != nil {
			return err
		}
	}
	n, err := b.enc.Flush()
	b.c.bytesOut.Add(int64(n))
	if err != nil {
		return err
	}
	b.c.framesOut.Add(int64(len(ms)))
	return nil
}

func (b *binCodec) read() (*message, error) {
	if err := b.dec.Decode(&b.rm); err != nil {
		if wire.IsDecodeError(err) {
			b.c.decodeErrors.Add(1)
		}
		return nil, err
	}
	b.c.framesIn.Add(1)
	return fromWire(&b.rm)
}

// msgTypeToWire maps the transport-independent message types onto wire
// frame types.
func msgTypeToWire(t msgType) (wire.Type, bool) {
	switch t {
	case msgRegister:
		return wire.TypeRegister, true
	case msgSubmit:
		return wire.TypeSubmit, true
	case msgAssign:
		return wire.TypeAssign, true
	case msgResult:
		return wire.TypeResult, true
	case msgHeartbeat:
		return wire.TypeHeartbeat, true
	case msgSnapshot:
		return wire.TypeSnapshot, true
	}
	return 0, false
}

func wireTypeToMsg(t wire.Type) (msgType, bool) {
	switch t {
	case wire.TypeRegister:
		return msgRegister, true
	case wire.TypeSubmit:
		return msgSubmit, true
	case wire.TypeAssign:
		return msgAssign, true
	case wire.TypeResult:
		return msgResult, true
	case wire.TypeHeartbeat:
		return msgHeartbeat, true
	case wire.TypeSnapshot:
		return msgSnapshot, true
	}
	return "", false
}

// toWire fills wm from m, reusing wm's field capacity where possible.
func toWire(m *message, wm *wire.Message) error {
	t, ok := msgTypeToWire(m.Type)
	if !ok {
		return fmt.Errorf("cluster: message type %q has no binary encoding", m.Type)
	}
	wm.Type = t
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
	return nil
}

// fromWire converts a decoded frame into a fresh message, copying every
// retained field out of the decoder's reused buffer.
func fromWire(wm *wire.Message) (*message, error) {
	t, ok := wireTypeToMsg(wm.Type)
	if !ok {
		return nil, fmt.Errorf("cluster: unknown wire type %d", byte(wm.Type))
	}
	m := &message{
		Type:   t,
		Flags:  wm.Flags,
		TaskID: string(wm.TaskID),
		Name:   string(wm.Name),
		Err:    string(wm.Err),
	}
	if len(wm.Payload) > 0 {
		m.Payload = append([]byte(nil), wm.Payload...)
	}
	if t == msgSnapshot {
		snap := &snapshotData{Epoch: wm.Epoch, Pending: int(wm.Pending)}
		for _, id := range wm.Leases {
			snap.Leases = append(snap.Leases, string(id))
		}
		m.Snap = snap
	}
	return m, nil
}

// negotiate inspects the first byte of an accepted connection and
// returns the codec for whichever framing the peer is speaking.  Binary
// frames open with wire.MagicByte0 (0xD5); JSON frames open with a
// length byte that the 64 MiB cap keeps ≤ 0x04.
func negotiate(conn io.ReadWriter, c *wireCounters) (codec, error) {
	br := bufio.NewReaderSize(countingReader{conn, &c.bytesIn}, 16<<10)
	first, err := br.Peek(1)
	if err != nil {
		return nil, err
	}
	tr := TransportJSON
	if first[0] == wire.MagicByte0 {
		tr = TransportBinary
	}
	c.countConn(tr)
	return newCodec(tr, br, conn, c), nil
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
