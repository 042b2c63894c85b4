package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// frameChunk bounds the bytes read (and the buffer growth) per step
// while a frame's body arrives, so a hostile header claiming a
// near-MaxFrame length on a short connection cannot force a 64 MiB
// upfront allocation — memory grows only as bytes actually arrive.
const frameChunk = 64 << 10

// Decoder reads frames from one reader into a reusable buffer.  The
// Message it fills on Decode aliases that buffer: fields are valid only
// until the next Decode call, which is exactly the lifetime the cluster
// transport needs (it converts retained fields at the protocol
// boundary).  In steady state Decode allocates nothing.  Decoder is not
// safe for concurrent use.
type Decoder struct {
	r      io.Reader
	hdr    [HeaderSize]byte
	buf    []byte
	leases [][]byte
}

// NewDecoder returns a Decoder reading frames from r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: r}
}

// Decode reads and parses one frame into m.  A clean end of stream at a
// frame boundary returns io.EOF; a stream that dies mid-frame returns
// io.ErrUnexpectedEOF; malformed frames return errors wrapping the
// package sentinels (see IsDecodeError).
//
//lint:hot
func (d *Decoder) Decode(m *Message) error {
	if _, err := io.ReadFull(d.r, d.hdr[:]); err != nil {
		// io.EOF here means zero header bytes arrived: the peer closed
		// between frames, which is not a decode failure.
		return err
	}
	if got := binary.BigEndian.Uint16(d.hdr[0:2]); got != Magic {
		return fmt.Errorf("%w: 0x%04X", ErrBadMagic, got)
	}
	if d.hdr[2] != Version {
		return fmt.Errorf("%w: %d", ErrVersion, d.hdr[2])
	}
	typ := Type(d.hdr[3])
	if !typ.known() {
		return fmt.Errorf("%w: %d", ErrBadType, d.hdr[3])
	}
	idLen := int(d.hdr[5])
	bodyLen := binary.BigEndian.Uint32(d.hdr[6:10])
	if bodyLen > MaxFrame {
		return fmt.Errorf("%w: body claims %d bytes", ErrFrameTooLarge, bodyLen)
	}
	buf, err := d.readFrame(idLen + int(bodyLen))
	if err != nil {
		return err
	}

	*m = Message{Type: typ, Flags: d.hdr[4], TaskID: buf[:idLen:idLen]}
	body := buf[idLen:]
	switch typ {
	case TypeRegister:
		if m.Name, body, err = cutBytes(body); err != nil {
			return err
		}
		if len(body) != 0 {
			return fmt.Errorf("%w: %d trailing bytes after register body", ErrMalformed, len(body))
		}
	case TypeAssign:
		m.Payload = body
	case TypeResult:
		if m.Err, body, err = cutBytes(body); err != nil {
			return err
		}
		m.Payload = body
	case TypeHeartbeat:
		if len(body) != 0 {
			return fmt.Errorf("%w: %d trailing bytes after heartbeat", ErrMalformed, len(body))
		}
	case TypeSnapshot:
		if m.Epoch, body, err = cutUvarint(body); err != nil {
			return err
		}
		if m.Pending, body, err = cutUvarint(body); err != nil {
			return err
		}
		var n uint64
		if n, body, err = cutUvarint(body); err != nil {
			return err
		}
		// Each encoded lease costs at least one byte, so n is implicitly
		// bounded by the body length — no preallocation from the claim.
		if n > uint64(len(body))+1 {
			return fmt.Errorf("%w: %d leases claimed in %d body bytes", ErrMalformed, n, len(body))
		}
		leases := d.leases[:0]
		for i := uint64(0); i < n; i++ {
			var id []byte
			if id, body, err = cutBytes(body); err != nil {
				return err
			}
			leases = append(leases, id)
		}
		if len(body) != 0 {
			return fmt.Errorf("%w: %d trailing bytes after snapshot", ErrMalformed, len(body))
		}
		d.leases = leases
		m.Leases = leases
	}
	return nil
}

// readFrame fills the reusable buffer with exactly n frame bytes,
// growing it in bounded chunks while data actually arrives.
func (d *Decoder) readFrame(n int) ([]byte, error) {
	if cap(d.buf) >= n {
		d.buf = d.buf[:n]
		if _, err := io.ReadFull(d.r, d.buf); err != nil {
			return nil, midFrame(err)
		}
		return d.buf, nil
	}
	buf := d.buf[:0]
	for remaining := n; remaining > 0; {
		c := min(remaining, frameChunk)
		start := len(buf)
		buf = append(buf, make([]byte, c)...)
		if _, err := io.ReadFull(d.r, buf[start:]); err != nil {
			return nil, midFrame(err)
		}
		remaining -= c
	}
	d.buf = buf
	return buf, nil
}

// midFrame upgrades io.EOF to io.ErrUnexpectedEOF: once a header has
// been consumed, any end of stream is a truncated frame.
func midFrame(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// cutUvarint decodes one uvarint off the front of b.
func cutUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: bad uvarint", ErrMalformed)
	}
	return v, b[n:], nil
}

// cutBytes decodes one uvarint-prefixed byte field off the front of b.
func cutBytes(b []byte) ([]byte, []byte, error) {
	n, rest, err := cutUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(rest)) {
		return nil, nil, fmt.Errorf("%w: field of %d bytes overruns body", ErrMalformed, n)
	}
	return rest[:n:n], rest[n:], nil
}

// IsDecodeError reports whether err is a malformed- or truncated-frame
// failure (as opposed to ordinary connection teardown such as io.EOF or
// a reset).  Transports use it to drive their decode-error counters:
// corruption drops the one connection it arrived on and is counted;
// clean closes are not.
func IsDecodeError(err error) bool {
	return errors.Is(err, ErrBadMagic) ||
		errors.Is(err, ErrVersion) ||
		errors.Is(err, ErrBadType) ||
		errors.Is(err, ErrFrameTooLarge) ||
		errors.Is(err, ErrMalformed) ||
		errors.Is(err, io.ErrUnexpectedEOF)
}
