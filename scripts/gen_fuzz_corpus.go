//go:build ignore

// gen_fuzz_corpus regenerates the committed fuzz corpora under
// internal/*/testdata/fuzz/.  Run from the repository root:
//
//	go run scripts/gen_fuzz_corpus.go
//
// The corpora seed each fuzz target with the interesting boundary
// inputs — valid encodings of every supported variant, truncations,
// hostile length/shape claims — so even a short fuzz run starts from
// the format's corners instead of rediscovering them.
package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/cluster/wire"
	"repro/internal/npy"
)

func writeCorpus(dir, name string, entry string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	body := "go test fuzz v1\n" + entry + "\n"
	if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
		log.Fatal(err)
	}
}

func bytesEntry(b []byte) string  { return "[]byte(" + strconv.Quote(string(b)) + ")" }
func stringEntry(s string) string { return "string(" + strconv.Quote(s) + ")" }
func byteEntry(b byte) string     { return fmt.Sprintf("byte('\\x%02x')", b) }
func uint64Entry(v uint64) string { return fmt.Sprintf("uint64(%d)", v) }

// multiEntry joins the per-argument lines of a multi-parameter fuzz
// target's corpus file.
func multiEntry(vals ...string) string { return strings.Join(vals, "\n") }

// wireFrame builds one binary frame, failing loudly on invalid input so
// the generator never commits a broken corpus.
func wireFrame(m *wire.Message) []byte {
	frame, err := wire.AppendFrame(nil, m)
	if err != nil {
		log.Fatal(err)
	}
	return frame
}

func npyBytes(shape []int, data []float64) []byte {
	var buf bytes.Buffer
	if err := npy.Write(&buf, &npy.Array{Shape: shape, Data: data}); err != nil {
		log.Fatal(err)
	}
	return buf.Bytes()
}

// rawNpy builds an .npy stream with an arbitrary header dict, valid or
// hostile.
func rawNpy(header string, payload []byte) []byte {
	var buf bytes.Buffer
	buf.Write([]byte{0x93, 'N', 'U', 'M', 'P', 'Y', 1, 0})
	h := header + "\n"
	var hlen [2]byte
	binary.LittleEndian.PutUint16(hlen[:], uint16(len(h)))
	buf.Write(hlen[:])
	buf.WriteString(h)
	buf.Write(payload)
	return buf.Bytes()
}

func main() {
	npyDir := filepath.Join("internal", "npy", "testdata", "fuzz", "FuzzNpyRoundTrip")
	valid := npyBytes([]int{2, 3}, []float64{1, 2, 3, 4, 5, 6})
	writeCorpus(npyDir, "valid_f8_2x3", bytesEntry(valid))
	writeCorpus(npyDir, "scalar_0d",
		bytesEntry(rawNpy("{'descr': '<f8', 'fortran_order': False, 'shape': (), }",
			[]byte{0, 0, 0, 0, 0, 0, 0, 0x40})))
	writeCorpus(npyDir, "f4_vector",
		bytesEntry(rawNpy("{'descr': '<f4', 'fortran_order': False, 'shape': (2,), }",
			[]byte{0, 0, 0x80, 0x3f, 0, 0, 0, 0x40})))
	writeCorpus(npyDir, "i8_vector",
		bytesEntry(rawNpy("{'descr': '<i8', 'fortran_order': False, 'shape': (1,), }",
			[]byte{7, 0, 0, 0, 0, 0, 0, 0})))
	writeCorpus(npyDir, "truncated_payload", bytesEntry(valid[:len(valid)-5]))
	writeCorpus(npyDir, "hostile_shape",
		bytesEntry(rawNpy("{'descr': '<f8', 'fortran_order': False, 'shape': (9999999999, 9999999999), }", nil)))
	writeCorpus(npyDir, "huge_claimed_shape",
		bytesEntry(rawNpy("{'descr': '<f8', 'fortran_order': False, 'shape': (1073741824,), }", nil)))
	writeCorpus(npyDir, "fortran_order",
		bytesEntry(rawNpy("{'descr': '<f8', 'fortran_order': True, 'shape': (1,), }",
			make([]byte, 8))))
	writeCorpus(npyDir, "bad_dtype",
		bytesEntry(rawNpy("{'descr': '>c16', 'fortran_order': False, 'shape': (1,), }", nil)))
	writeCorpus(npyDir, "zero_dim",
		bytesEntry(npyBytes([]int{0, 3}, nil)))

	wireDir := filepath.Join("internal", "cluster", "wire", "testdata", "fuzz", "FuzzWireDecode")
	writeCorpus(wireDir, "register",
		bytesEntry(wireFrame(&wire.Message{Type: wire.TypeRegister, Name: []byte("worker-0"), Flags: wire.FlagWantSnapshot})))
	writeCorpus(wireDir, "submit",
		bytesEntry(wireFrame(&wire.Message{Type: wire.TypeSubmit, TaskID: []byte("task-1"), Payload: []byte(`{"genome":[0.5,-1.5]}`)})))
	writeCorpus(wireDir, "assign",
		bytesEntry(wireFrame(&wire.Message{Type: wire.TypeAssign, TaskID: []byte("task-2"), Payload: []byte(`{"genome":[1]}`)})))
	writeCorpus(wireDir, "result_ok",
		bytesEntry(wireFrame(&wire.Message{Type: wire.TypeResult, TaskID: []byte("task-3"), Payload: []byte(`{"fitness":[2.5]}`)})))
	writeCorpus(wireDir, "result_err",
		bytesEntry(wireFrame(&wire.Message{Type: wire.TypeResult, TaskID: []byte("task-4"), Err: []byte("diverged")})))
	writeCorpus(wireDir, "heartbeat",
		bytesEntry(wireFrame(&wire.Message{Type: wire.TypeHeartbeat, TaskID: []byte("task-5")})))
	writeCorpus(wireDir, "snapshot",
		bytesEntry(wireFrame(&wire.Message{Type: wire.TypeSnapshot, Epoch: 981, Pending: 12,
			Leases: [][]byte{[]byte("lease-a"), []byte("lease-b")}})))
	badMagic := wireFrame(&wire.Message{Type: wire.TypeHeartbeat, TaskID: []byte("t")})
	badMagic[0] = 0x00
	writeCorpus(wireDir, "bad_magic", bytesEntry(badMagic))
	truncated := wireFrame(&wire.Message{Type: wire.TypeSubmit, TaskID: []byte("t"), Payload: []byte(`{"genome":[1,2,3]}`)})
	writeCorpus(wireDir, "truncated_frame", bytesEntry(truncated[:len(truncated)-4]))
	hostileWire := make([]byte, wire.HeaderSize)
	binary.BigEndian.PutUint16(hostileWire[0:2], wire.Magic)
	hostileWire[2] = wire.Version
	hostileWire[3] = 2 // submit
	binary.BigEndian.PutUint32(hostileWire[6:10], 63<<20)
	writeCorpus(wireDir, "hostile_length_no_body", bytesEntry(hostileWire))

	msgDir := filepath.Join("internal", "cluster", "testdata", "fuzz", "FuzzMessageRoundTrip")
	msg := func(typ, flags byte, taskID, name, errStr string, payload []byte, epoch, pending uint64, lease string) string {
		return multiEntry(byteEntry(typ), byteEntry(flags),
			stringEntry(taskID), stringEntry(name), stringEntry(errStr),
			bytesEntry(payload), uint64Entry(epoch), uint64Entry(pending), stringEntry(lease))
	}
	writeCorpus(msgDir, "register", msg(0, 1, "", "worker-0", "", nil, 0, 0, ""))
	writeCorpus(msgDir, "submit", msg(1, 0, "task-1", "", "", []byte(`{"genome":[0.5,-1.5]}`), 0, 0, ""))
	writeCorpus(msgDir, "assign", msg(2, 0, "task-2", "", "", []byte(`{"genome":[1]}`), 0, 0, ""))
	writeCorpus(msgDir, "result_err", msg(3, 0, "task-3", "", "diverged", []byte(`{"fitness":[2.5]}`), 0, 0, ""))
	writeCorpus(msgDir, "heartbeat", msg(4, 0, "task-4", "", "", nil, 0, 0, ""))
	writeCorpus(msgDir, "snapshot", msg(5, 0, "", "", "", nil, 981, 12, "lease-a"))
	writeCorpus(msgDir, "non_utf8_id", msg(1, 0, "id-\xff\xfe", "", "", []byte{0x80, 0x81}, 0, 0, ""))

	streamDir := filepath.Join("internal", "dataset", "stream", "testdata", "fuzz", "FuzzShardIndex")
	shardOK := npyBytes([]int{2, 6}, []float64{0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5, 8.5, 9.5, 10.5, 11.5})
	writeCorpus(streamDir, "valid_2x6_shard", bytesEntry(shardOK))
	writeCorpus(streamDir, "truncated_shard", bytesEntry(shardOK[:len(shardOK)-7]))
	writeCorpus(streamDir, "header_no_payload",
		bytesEntry(rawNpy("{'descr': '<f8', 'fortran_order': False, 'shape': (2, 6), }", nil)))
	writeCorpus(streamDir, "hostile_row_claim",
		bytesEntry(rawNpy("{'descr': '<f8', 'fortran_order': False, 'shape': (1000000, 6), }", nil)))
	writeCorpus(streamDir, "wrong_width",
		bytesEntry(npyBytes([]int{2, 4}, []float64{1, 2, 3, 4, 5, 6, 7, 8})))
	writeCorpus(streamDir, "one_dimensional",
		bytesEntry(npyBytes([]int{6}, []float64{1, 2, 3, 4, 5, 6})))

	deepmdDir := filepath.Join("internal", "deepmd", "testdata", "fuzz", "FuzzInputJSON")
	writeCorpus(deepmdDir, "paper_input", stringEntry(`{
  "model": {
    "descriptor": {"rcut": 6.0, "rcut_smth": 1.0, "neuron": [25, 50, 100],
                   "axis_neuron": 16, "activation_function": "tanh"},
    "fitting_net": {"neuron": [240, 240, 240], "activation_function": "tanh"}
  },
  "learning_rate": {"start_lr": 0.001, "stop_lr": 1e-8},
  "training": {"numb_steps": 40000, "batch_size": 1, "disp_freq": 100}
}`))
	writeCorpus(deepmdDir, "empty_object", stringEntry(`{}`))
	writeCorpus(deepmdDir, "unknown_activation",
		stringEntry(`{"model":{"descriptor":{"activation_function":"gelu"}}}`))
	writeCorpus(deepmdDir, "negative_sizes",
		stringEntry(`{"model":{"descriptor":{"rcut":-1,"neuron":[-3]},"fitting_net":{"neuron":[0]}}}`))
	writeCorpus(deepmdDir, "wrong_types",
		stringEntry(`{"model":{"descriptor":{"rcut":"six"}},"training":{"numb_steps":"many"}}`))
	writeCorpus(deepmdDir, "not_json", stringEntry(`not json at all`))

	fmt.Println("fuzz corpora regenerated")
}
