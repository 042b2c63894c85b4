package cluster

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/cluster/wire"
)

// FuzzMessageRoundTrip: a message written through the codec and read
// back must come out identical, field for field — raw non-UTF-8 ids,
// names, errors and payload bytes included.  With one framing the
// identity is the spec.  Type byte 2, the retired client submit, must
// instead be refused by the write.
func FuzzMessageRoundTrip(f *testing.F) {
	f.Add(byte(0), byte(1), "", "worker-0", "", []byte(nil), uint64(0), uint64(0), "")
	f.Add(byte(1), byte(0), "task-1", "", "", []byte(`{"genome":[0.5,-1.5]}`), uint64(0), uint64(0), "")
	f.Add(byte(2), byte(0), "task-2", "", "", []byte(`{"genome":[1]}`), uint64(0), uint64(0), "")
	f.Add(byte(3), byte(0), "task-3", "", "diverged", []byte(`{"fitness":[2.5]}`), uint64(0), uint64(0), "")
	f.Add(byte(4), byte(0), "task-4", "", "", []byte(nil), uint64(0), uint64(0), "")
	f.Add(byte(5), byte(0), "", "", "", []byte(nil), uint64(981), uint64(12), "lease-a")

	f.Fuzz(func(t *testing.T, typ, flags byte, taskID, name, errStr string, payload []byte, epoch, pending uint64, lease string) {
		m := &message{Type: wire.TypeRegister + wire.Type(typ%6), Flags: flags}
		// Populate only the fields the frame type carries; the codec drops
		// the rest by design.
		switch m.Type {
		case wire.TypeRegister:
			m.Name = name
		case wire.TypeAssign, wire.TypeResult, wire.TypeHeartbeat:
			m.TaskID = taskID[:min(len(taskID), wire.MaxTaskID)]
		case wire.TypeSnapshot:
			m.Snap = &Snapshot{Epoch: epoch, Pending: int(pending), Leases: []string{lease}}
		}
		// An empty payload reads back as nil.
		if (m.Type == wire.TypeAssign || m.Type == wire.TypeResult) && len(payload) > 0 {
			m.Payload = payload
		}
		if m.Type == wire.TypeResult {
			m.Err = errStr
		}

		var buf bytes.Buffer
		cd := newCodec(&buf, &wireCounters{})
		if m.Type == 2 {
			if err := cd.write(m); !errors.Is(err, wire.ErrBadType) || buf.Len() != 0 {
				t.Fatalf("write of the retired submit type: err %v, %d bytes out; want ErrBadType and nothing written", err, buf.Len())
			}
			return
		}
		if err := cd.write(m); err != nil {
			t.Fatalf("encode of %+v: %v", m, err)
		}
		out, err := cd.read()
		if err != nil {
			t.Fatalf("decode of own encoding of %+v: %v", m, err)
		}
		if !reflect.DeepEqual(out, m) {
			t.Fatalf("round trip changed the message:\n in  %+v %+v\n out %+v %+v", m, m.Snap, out, out.Snap)
		}
	})
}
