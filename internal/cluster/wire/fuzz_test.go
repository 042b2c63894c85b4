package wire

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// FuzzWireDecode feeds arbitrary bytes to the binary frame decoder.
// Decode must never panic, a hostile body-length claim on a short
// stream must not allocate anywhere near the claimed size, and every
// accepted message must survive a re-encode → re-decode round trip
// unchanged.
func FuzzWireDecode(f *testing.F) {
	for _, m := range sampleMessages() {
		frame, err := AppendFrame(nil, &m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Add([]byte{})
	f.Add([]byte{byte(Magic >> 8)})
	// A near-MaxFrame claim with no body: must fail fast, no allocation.
	hostile := make([]byte, HeaderSize)
	binary.BigEndian.PutUint16(hostile[0:2], Magic)
	hostile[2] = Version
	hostile[3] = byte(TypeAssign)
	binary.BigEndian.PutUint32(hostile[6:10], 63<<20)
	f.Add(hostile)
	for _, typ := range retiredTypes {
		f.Add(retiredFrame(typ))
	}

	f.Fuzz(func(t *testing.T, in []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var m Message
		err := NewDecoder(bytes.NewReader(in)).Decode(&m)
		runtime.ReadMemStats(&after)
		if grown := after.TotalAlloc - before.TotalAlloc; grown > uint64(len(in))+1<<20 {
			t.Fatalf("decoding %d input bytes allocated %d bytes", len(in), grown)
		}
		if err != nil {
			return
		}
		frame, err := AppendFrame(nil, &m)
		if err != nil {
			t.Fatalf("re-encoding accepted message %+v: %v", m, err)
		}
		var m2 Message
		if err := NewDecoder(bytes.NewReader(frame)).Decode(&m2); err != nil {
			t.Fatalf("re-decoding re-encoded message: %v", err)
		}
		if !equalMessages(&m, &m2) {
			t.Fatalf("round trip changed message:\n first  %+v\n second %+v", m, m2)
		}
	})
}
