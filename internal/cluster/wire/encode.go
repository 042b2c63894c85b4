package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Encoder frames messages onto one writer.  The frame is built in a
// reusable buffer and written with a single Write call, so steady-state
// encoding allocates nothing and costs one syscall per message.  Encoder
// is not safe for concurrent use; callers serialize writes per
// connection exactly as they must for the underlying net.Conn.
type Encoder struct {
	w   io.Writer
	buf []byte
}

// NewEncoder returns an Encoder writing frames to w.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: w}
}

// Encode validates, frames and writes one message.  It reports the
// number of bytes written so transports can keep byte counters without
// wrapping the writer.  TestWireSteadyStateAllocs holds it at 0 allocs/op
// for every message type once the buffer is warm.
func (e *Encoder) Encode(m *Message) (int, error) {
	frame, err := AppendFrame(e.buf[:0], m)
	if err != nil {
		return 0, err
	}
	e.buf = frame
	return e.w.Write(frame)
}

// AppendFrame appends the binary frame for m to dst and returns the
// extended slice.  It is the allocation-free core of Encode, exported so
// tests and corpus generators can build frames without a writer.
func AppendFrame(dst []byte, m *Message) ([]byte, error) {
	if !m.Type.known() {
		return nil, fmt.Errorf("%w: %d", ErrBadType, byte(m.Type))
	}
	if len(m.TaskID) > MaxTaskID {
		return nil, fmt.Errorf("wire: task id of %d bytes exceeds %d", len(m.TaskID), MaxTaskID)
	}
	start := len(dst)
	dst = append(dst,
		byte(Magic>>8), byte(Magic&0xFF),
		Version,
		byte(m.Type),
		m.Flags,
		byte(len(m.TaskID)),
		0, 0, 0, 0, // body length, patched below
	)
	dst = append(dst, m.TaskID...)
	bodyStart := len(dst)
	switch m.Type {
	case TypeRegister:
		dst = binary.AppendUvarint(dst, uint64(len(m.Name)))
		dst = append(dst, m.Name...)
	case TypeAssign:
		dst = append(dst, m.Payload...)
	case TypeResult:
		dst = binary.AppendUvarint(dst, uint64(len(m.Err)))
		dst = append(dst, m.Err...)
		dst = append(dst, m.Payload...)
	}
	bodyLen := len(dst) - bodyStart
	if bodyLen > MaxFrame {
		return nil, fmt.Errorf("%w: body of %d bytes", ErrFrameTooLarge, bodyLen)
	}
	binary.BigEndian.PutUint32(dst[start+6:start+10], uint32(bodyLen))
	return dst, nil
}
