// Package wire is the framing of the cluster plane, and its only one: a
// hand-rolled length-prefixed codec that carries every protocol message
// (register, assign → result, heartbeat, registered) with
// fixed-width headers and varint-delimited fields.  The paper's
// deployment moved hundreds of fitness tasks per generation between the
// Dask scheduler and its workers (§2.2.5); at that rate the envelope
// cost of a reflective text format — marshal/unmarshal plus an
// allocation per message — would dominate the scheduler's CPU, so the
// codec here is built around two properties:
//
//   - Zero-copy decode: Decode parses a frame into a Message whose byte
//     fields alias the Decoder's internal buffer.  Nothing is copied and
//     nothing is allocated in steady state; callers that retain a field
//     past the next Decode must copy it themselves.
//   - Zero-allocation encode: Encode builds the frame in a reusable
//     buffer and issues exactly one Write, so a megabyte-per-second
//     heartbeat stream costs no garbage and no extra syscalls.
//
// Frame layout (all multi-byte integers big-endian):
//
//	offset size field
//	0      2    magic     0xD5A7
//	2      1    version   format version (currently 1)
//	3      1    type      message type (Register, Assign … Registered)
//	4      1    flags     per-type bits (none defined; a register
//	                      frame carrying any is refused by the scheduler)
//	5      1    id len    task-id length in bytes (0–255)
//	6      4    body len  length of the body after the task id
//	10     …    task id   raw task-id bytes
//	…      …    body      type-specific fields (see below)
//
// Body encodings, all uvarint-delimited:
//
//	Register:   len(name) name
//	Assign:     payload (the remaining body bytes, verbatim)
//	Result:     len(err) err payload
//	Heartbeat:  (empty)
//	Registered: (empty)
//
// Every connection speaks this framing from its first byte; there is no
// negotiation.  A peer that sends anything else — another framing, or a
// frame corrupted in flight — fails Decode with one of the sentinels
// below, and the cluster drops that one connection.
package wire

import (
	"errors"
	"fmt"
)

// Magic opens every frame; a stream that does not start with it is not
// speaking this protocol (ErrBadMagic).
const Magic uint16 = 0xD5A7

// Version is the wire-format version encoded in every frame.  Decode
// rejects any other version (ErrVersion), so a scheduler that sees one
// drops the connection.
const Version byte = 1

// HeaderSize is the fixed frame-header length in bytes.
const HeaderSize = 10

// MaxFrame bounds the body of one frame (64 MiB), so a corrupt or
// hostile length prefix cannot force a huge allocation.
const MaxFrame = 64 << 20

// MaxTaskID bounds the task-id field (it has a 1-byte length).
const MaxTaskID = 255

// Type enumerates the protocol messages.  Byte 2 was the retired client
// submit, and bytes 7–10 the retired multiplexing frames; they stay
// unassigned, so both ends refuse them (ErrBadType).
type Type byte

const (
	// TypeRegister is worker → scheduler: join the pool.
	TypeRegister Type = 1
	// TypeAssign is scheduler → worker: lease of one task.
	TypeAssign Type = 3
	// TypeResult is worker → scheduler: task outcome.
	TypeResult Type = 4
	// TypeHeartbeat is worker → scheduler: renew the task's lease.
	TypeHeartbeat Type = 5
	// TypeRegistered is scheduler → worker: the register acknowledgement,
	// sent before the first assignment.  A worker that does not get it
	// is not talking to a scheduler of this format.
	TypeRegistered Type = 6

	typeMax = TypeRegistered
)

// known reports whether t is a type this format carries.
func (t Type) known() bool { return t == TypeRegister || (t >= TypeAssign && t <= typeMax) }

var typeNames = [...]string{TypeRegister: "register", TypeAssign: "assign", TypeResult: "result",
	TypeHeartbeat: "heartbeat", TypeRegistered: "registered"}

// String names the type for diagnostics.
func (t Type) String() string {
	if t.known() {
		return typeNames[t]
	}
	return fmt.Sprintf("type(%d)", byte(t))
}

// Message is one protocol message.  Byte fields produced by Decode
// alias the Decoder's internal buffer and are valid only until the next
// Decode call; Encode never retains them.
type Message struct {
	Type  Type
	Flags byte
	// TaskID identifies the task for Assign/Result/Heartbeat.
	TaskID []byte
	// Name is the worker name (Register only).
	Name []byte
	// Err is the application error (Result only; empty = success).
	Err []byte
	// Payload is the opaque task/result body (Assign/Result).
	Payload []byte
}

// Decode-failure sentinels.  Every malformed-frame error returned by
// Decoder.Decode wraps one of these (or io.ErrUnexpectedEOF for a frame
// cut mid-flight), so transports can count decode errors separately from
// ordinary connection teardown; see IsDecodeError.
var (
	// ErrBadMagic reports a frame that does not start with Magic.
	ErrBadMagic = errors.New("wire: bad magic")
	// ErrVersion reports an unsupported format version.
	ErrVersion = errors.New("wire: unsupported version")
	// ErrBadType reports an unknown message type.
	ErrBadType = errors.New("wire: unknown message type")
	// ErrFrameTooLarge reports a body-length claim beyond MaxFrame.
	ErrFrameTooLarge = errors.New("wire: frame exceeds limit")
	// ErrMalformed reports a syntactically invalid body (bad varint,
	// field overrun, trailing bytes).
	ErrMalformed = errors.New("wire: malformed frame")
)
