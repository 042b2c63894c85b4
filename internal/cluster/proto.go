// Package cluster is a small distributed task system in the style of the
// Dask scheduler/worker/client deployment the paper used on Summit
// (§2.2.5): a client submits fitness-evaluation tasks to a scheduler,
// which fans them out to workers (one per compute node in the paper);
// results flow back to the client.  Matching the paper's operational
// choices, there are no "nannies" — a worker that dies stays dead, and the
// scheduler reassigns its in-flight tasks to surviving workers.
package cluster

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// msgType enumerates protocol messages.
type msgType string

const (
	msgRegister  msgType = "register"  // worker → scheduler
	msgSubmit    msgType = "submit"    // client → scheduler
	msgAssign    msgType = "assign"    // scheduler → worker
	msgResult    msgType = "result"    // worker → scheduler → client
	msgHeartbeat msgType = "heartbeat" // worker → scheduler: still working on TaskID, renew its lease
	msgSnapshot  msgType = "snapshot"  // scheduler → worker: catch-up state at register time
)

// message is the transport-independent protocol message.  The JSON
// transport frames it as length-prefixed JSON; the binary transport
// (internal/cluster/wire) maps the same fields onto fixed-header frames.
type message struct {
	Type    msgType         `json:"type"`
	Flags   byte            `json:"flags,omitempty"` // register: flagWantSnapshot
	TaskID  string          `json:"task_id,omitempty"`
	Name    string          `json:"name,omitempty"` // worker name on register
	Payload json.RawMessage `json:"payload,omitempty"`
	Err     string          `json:"err,omitempty"`
	Snap    *snapshotData   `json:"snapshot,omitempty"`
}

// flagWantSnapshot, set on a register message, asks the scheduler for a
// snapshot reply before the first assignment.  Raw peers that register
// without it (older code, hand-rolled test workers) see the exact
// pre-snapshot protocol.  It is the only register flag: the scheduler
// refuses a register that carries any other bit.
const flagWantSnapshot byte = 1 << 0

// snapshotData is the compact scheduler state a late-joining worker
// receives instead of any history replay: where the campaign stands
// (Epoch counts tasks submitted so far), how deep the queue is, and
// which leases are outstanding right now.  Its size is O(in-flight
// tasks), independent of how long the campaign has been running.
type snapshotData struct {
	Epoch   uint64   `json:"epoch"`
	Pending int      `json:"pending"`
	Leases  []string `json:"leases,omitempty"`
}

// errBadFrame marks a JSON-transport decode failure (oversized or
// unparseable frame), as opposed to ordinary connection teardown, so the
// codec layer can count decode errors.
var errBadFrame = errors.New("cluster: bad frame")

// maxFrame bounds a frame to keep a corrupt peer from forcing a huge
// allocation.
const maxFrame = 64 << 20

// writeMessage frames and writes one message.
func writeMessage(w io.Writer, m *message) error {
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("cluster: encoding message: %w", err)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(data)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// readMessage reads one framed message.
func readMessage(r io.Reader) (*message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("%w: frame of %d bytes exceeds limit", errBadFrame, n)
	}
	data, err := readFrame(r, int(n))
	if err != nil {
		return nil, err
	}
	var m message
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%w: decoding message: %v", errBadFrame, err)
	}
	return &m, nil
}

// frameChunk bounds the bytes read (and allocated) per step, so a
// hostile header claiming a near-maxFrame length on a short connection
// cannot force a 64 MiB upfront allocation — memory grows only as bytes
// actually arrive.
const frameChunk = 64 << 10

// readFrame reads exactly n bytes in bounded chunks.
func readFrame(r io.Reader, n int) ([]byte, error) {
	data := make([]byte, 0, min(n, frameChunk))
	for remaining := n; remaining > 0; {
		c := min(remaining, frameChunk)
		start := len(data)
		data = append(data, make([]byte, c)...)
		if _, err := io.ReadFull(r, data[start:]); err != nil {
			return nil, err
		}
		remaining -= c
	}
	return data, nil
}
