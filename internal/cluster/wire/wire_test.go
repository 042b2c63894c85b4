package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"
)

// sampleMessages covers every frame type with representative field
// shapes, including empty edge cases.
func sampleMessages() []Message {
	return []Message{
		{Type: TypeRegister, Name: []byte("worker-0")},
		{Type: TypeRegister, Name: nil},
		// Bit 0 was the retired want-snapshot request and bit 1 the retired
		// multiplexing hello: still well-formed frames (flags are opaque
		// here), refused by the scheduler.
		{Type: TypeRegister, Name: []byte("old-worker"), Flags: 1 << 0},
		{Type: TypeRegister, Name: []byte("stale-peer"), Flags: 1 << 1},
		{Type: TypeAssign, TaskID: []byte("task-2"), Payload: []byte(`{"genome":[1,2,3]}`)},
		{Type: TypeAssign, TaskID: []byte("t"), Payload: nil},
		{Type: TypeResult, TaskID: []byte("task-3"), Payload: []byte(`{"fitness":[0.5]}`)},
		{Type: TypeResult, TaskID: []byte("task-4"), Err: []byte("cluster: task timed out")},
		{Type: TypeHeartbeat, TaskID: []byte("task-5")},
		{Type: TypeRegistered},
	}
}

// retiredTypes are the type bytes of the frames the format once carried:
// the client's submit (2) and the multiplexing open, data, close and
// window (7–10).  Encoder and decoder must both reject them, so they
// cannot come back unnoticed.
var retiredTypes = []byte{2, 7, 8, 9, 10}

// retiredFrame is a header-only frame carrying type byte typ.
func retiredFrame(typ byte) []byte {
	return []byte{byte(Magic >> 8), byte(Magic & 0xFF), Version, typ, 0, 0, 0, 0, 0, 0}
}

func equalMessages(a, b *Message) bool {
	return a.Type == b.Type && a.Flags == b.Flags &&
		bytes.Equal(a.TaskID, b.TaskID) && bytes.Equal(a.Name, b.Name) &&
		bytes.Equal(a.Err, b.Err) && bytes.Equal(a.Payload, b.Payload)
}

// writeCounter is a bytes.Buffer that counts Write calls.
type writeCounter struct {
	bytes.Buffer
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestRoundTrip encodes and decodes every message type and expects the
// fields back unchanged, as a pipelined stream through a single
// Encoder/Decoder pair that costs one Write per frame.
func TestRoundTrip(t *testing.T) {
	msgs := sampleMessages()
	var buf writeCounter
	enc := NewEncoder(&buf)
	for i := range msgs {
		if _, err := enc.Encode(&msgs[i]); err != nil {
			t.Fatalf("encode %v: %v", msgs[i].Type, err)
		}
		if _, err := enc.Encode(&Message{Type: 0}); !errors.Is(err, ErrBadType) {
			t.Fatalf("encoding type 0: %v, want ErrBadType", err)
		}
	}
	if buf.writes != len(msgs) {
		t.Errorf("%d writes, want %d", buf.writes, len(msgs))
	}
	dec := NewDecoder(&buf)
	var got Message
	for i := range msgs {
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("decode %v: %v", msgs[i].Type, err)
		}
		// Normalize nil-vs-empty before comparing: the decoder hands back
		// empty (not nil) slices for zero-length fields it sliced out.
		if !equalMessages(&msgs[i], &got) {
			t.Errorf("round trip %v:\n sent %+v\n got  %+v", msgs[i].Type, msgs[i], got)
		}
	}
	if err := dec.Decode(&got); !errors.Is(err, io.EOF) {
		t.Errorf("decode at end of stream = %v, want io.EOF", err)
	}
}

// TestDecodeZeroCopy verifies the documented aliasing contract: fields
// of a decoded Message point into the Decoder's buffer and are rewritten
// by the next Decode.
func TestDecodeZeroCopy(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	m1 := Message{Type: TypeAssign, TaskID: []byte("id-aaaa"), Payload: []byte("payload-one")}
	m2 := Message{Type: TypeAssign, TaskID: []byte("id-bbbb"), Payload: []byte("payload-two")}
	for _, m := range []*Message{&m1, &m2} {
		if _, err := enc.Encode(m); err != nil {
			t.Fatal(err)
		}
	}
	dec := NewDecoder(&buf)
	var got Message
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	first := got.Payload
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if string(first) == "payload-one" {
		t.Error("first payload survived the second Decode; expected it to alias the reused buffer")
	}
}

// TestEncodeValidation exercises the encoder's reject paths.
func TestEncodeValidation(t *testing.T) {
	if _, err := AppendFrame(nil, &Message{Type: 0}); !errors.Is(err, ErrBadType) {
		t.Errorf("type 0: %v, want ErrBadType", err)
	}
	if _, err := AppendFrame(nil, &Message{Type: typeMax + 1}); !errors.Is(err, ErrBadType) {
		t.Errorf("type %d: %v, want ErrBadType", typeMax+1, err)
	}
	for _, typ := range retiredTypes {
		if _, err := AppendFrame(nil, &Message{Type: Type(typ)}); !errors.Is(err, ErrBadType) {
			t.Errorf("retired type %d: %v, want ErrBadType", typ, err)
		}
	}
	long := make([]byte, MaxTaskID+1)
	if _, err := AppendFrame(nil, &Message{Type: TypeHeartbeat, TaskID: long}); err == nil {
		t.Error("oversized task id encoded without error")
	}
	big := make([]byte, MaxFrame+1)
	if _, err := AppendFrame(nil, &Message{Type: TypeAssign, Payload: big}); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized payload: %v, want ErrFrameTooLarge", err)
	}
}

// frameFor builds a valid frame for tests that then corrupt it.
func frameFor(t *testing.T, m *Message) []byte {
	t.Helper()
	frame, err := AppendFrame(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestDecodeRejections corrupts frames field by field and checks each
// failure maps to its sentinel and satisfies IsDecodeError.
func TestDecodeRejections(t *testing.T) {
	base := &Message{Type: TypeResult, TaskID: []byte("task"), Payload: []byte("p"), Err: nil}
	type rejection struct {
		name    string
		mutate  func([]byte) []byte
		wantErr error
	}
	cases := []rejection{
		{"bad magic", func(f []byte) []byte { f[0] = 0x00; return f }, ErrBadMagic},
		{"bad version", func(f []byte) []byte { f[2] = Version + 1; return f }, ErrVersion},
		{"bad type", func(f []byte) []byte { f[3] = 99; return f }, ErrBadType},
		{"oversized body claim", func(f []byte) []byte {
			binary.BigEndian.PutUint32(f[6:10], MaxFrame+1)
			return f
		}, ErrFrameTooLarge},
		{"truncated mid-frame", func(f []byte) []byte { return f[:len(f)-1] }, io.ErrUnexpectedEOF},
		{"truncated header", func(f []byte) []byte { return f[:HeaderSize-2] }, io.ErrUnexpectedEOF},
	}
	for _, typ := range retiredTypes {
		cases = append(cases, rejection{fmt.Sprintf("retired type %d", typ), func([]byte) []byte { return retiredFrame(typ) }, ErrBadType})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			frame := tc.mutate(frameFor(t, base))
			var m Message
			err := NewDecoder(bytes.NewReader(frame)).Decode(&m)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if !IsDecodeError(err) {
				t.Errorf("IsDecodeError(%v) = false, want true", err)
			}
		})
	}

	// Trailing bytes after a fully-parsed body (heartbeats and register
	// acks have none, so any body byte is trailing — the retired snapshot
	// body among them; a Result would have absorbed extras into its
	// payload).
	var m Message
	for _, typ := range []Type{TypeHeartbeat, TypeRegistered} {
		f := frameFor(t, &Message{Type: typ, TaskID: []byte("task")})
		f = append(f, 0xFF)
		binary.BigEndian.PutUint32(f[6:10], 1)
		if err := NewDecoder(bytes.NewReader(f)).Decode(&m); !errors.Is(err, ErrMalformed) {
			t.Errorf("trailing bytes after %v: %v, want ErrMalformed", typ, err)
		}
	}

	// Truncated register body: the name length claims more bytes than the
	// body holds.
	reg := frameFor(t, &Message{Type: TypeRegister, Name: []byte("worker")})
	reg[HeaderSize] = 200 // name-length uvarint now overruns the body
	if err := NewDecoder(bytes.NewReader(reg)).Decode(&m); !errors.Is(err, ErrMalformed) {
		t.Errorf("overrunning name field: %v, want ErrMalformed", err)
	}
}

// TestCleanEOFIsNotADecodeError pins the classification the transports
// rely on: a peer closing between frames is ordinary teardown.
func TestCleanEOFIsNotADecodeError(t *testing.T) {
	var m Message
	err := NewDecoder(bytes.NewReader(nil)).Decode(&m)
	if !errors.Is(err, io.EOF) {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}
	if IsDecodeError(err) {
		t.Error("IsDecodeError(io.EOF) = true; clean closes must not count as decode errors")
	}
}

// TestAdversarialLengthClaim sends a header whose body length claims
// nearly MaxFrame on a connection that then dies.  The decoder must fail
// with a truncation error without having allocated anywhere near the
// claimed size — memory may grow only as bytes actually arrive.
func TestAdversarialLengthClaim(t *testing.T) {
	hdr := make([]byte, HeaderSize)
	binary.BigEndian.PutUint16(hdr[0:2], Magic)
	hdr[2] = Version
	hdr[3] = byte(TypeAssign)
	binary.BigEndian.PutUint32(hdr[6:10], MaxFrame) // claims 64 MiB
	stream := append(hdr, []byte("only a few body bytes")...)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var m Message
	err := NewDecoder(bytes.NewReader(stream)).Decode(&m)
	runtime.ReadMemStats(&after)

	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
		t.Errorf("decoder allocated %d bytes against a hostile %d-byte claim; want < 1 MiB", grown, MaxFrame)
	}
}

// loopReader replays one frame forever without allocating, for
// steady-state decode measurements.
type loopReader struct {
	data []byte
	off  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	if l.off == len(l.data) {
		l.off = 0
	}
	n := copy(p, l.data[l.off:])
	l.off += n
	return n, nil
}

// TestWireSteadyStateAllocs pins encode and decode of every message
// type at zero allocations per frame once buffers are warm — the
// property the whole binary transport exists to provide (mirroring
// nn's TestSteadyStateAllocs).
func TestWireSteadyStateAllocs(t *testing.T) {
	msgs := sampleMessages()
	for i := range msgs {
		m := &msgs[i]
		enc := NewEncoder(io.Discard)
		if _, err := enc.Encode(m); err != nil { // warm the encode buffer
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(20, func() {
			if _, err := enc.Encode(m); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("encode %v: %v allocs/op in steady state, want 0", m.Type, got)
		}

		frame := frameFor(t, m)
		dec := NewDecoder(&loopReader{data: frame})
		var out Message
		if err := dec.Decode(&out); err != nil { // warm the decode buffer
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(20, func() {
			if err := dec.Decode(&out); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("decode %v: %v allocs/op in steady state, want 0", m.Type, got)
		}
	}
}
