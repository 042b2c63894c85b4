package npy

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

// write23 returns the bytes of a 2x3 <f8 array with Data[i] = i*10.
func write23(t *testing.T) []byte {
	t.Helper()
	a := NewArray(2, 3)
	for i := range a.Data {
		a.Data[i] = float64(i * 10)
	}
	var buf bytes.Buffer
	if err := Write(&buf, a); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

func TestReadHeaderMatchesWrite(t *testing.T) {
	raw := write23(t)
	h, err := ReadHeader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadHeader: %v", err)
	}
	if h.Descr != "<f8" || h.Fortran {
		t.Errorf("header = %q fortran=%v, want \"<f8\" false", h.Descr, h.Fortran)
	}
	if len(h.Shape) != 2 || h.Shape[0] != 2 || h.Shape[1] != 3 {
		t.Errorf("shape = %v, want [2 3]", h.Shape)
	}
	if h.Rows() != 2 || h.RowLen() != 3 {
		t.Errorf("Rows/RowLen = %d/%d, want 2/3", h.Rows(), h.RowLen())
	}
	wantOff := int64(len(raw) - 2*3*8)
	if h.PayloadOffset != wantOff {
		t.Errorf("PayloadOffset = %d, want %d", h.PayloadOffset, wantOff)
	}
}

func TestReadHeaderScalarAnd1D(t *testing.T) {
	var buf bytes.Buffer
	if err := writeHeader(&buf, "<f8", nil); err != nil {
		t.Fatalf("writeHeader: %v", err)
	}
	h, err := ReadHeader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadHeader(0-d): %v", err)
	}
	if h.Rows() != 1 || h.RowLen() != 1 {
		t.Errorf("0-d Rows/RowLen = %d/%d, want 1/1", h.Rows(), h.RowLen())
	}

	buf.Reset()
	if err := writeHeader(&buf, "<f8", []int{5}); err != nil {
		t.Fatalf("writeHeader: %v", err)
	}
	h, err = ReadHeader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadHeader(1-d): %v", err)
	}
	if h.Rows() != 5 || h.RowLen() != 1 {
		t.Errorf("1-d Rows/RowLen = %d/%d, want 5/1", h.Rows(), h.RowLen())
	}
}

func TestReadHeaderErrors(t *testing.T) {
	valid := write23(t)
	cases := map[string][]byte{
		"empty":        nil,
		"bad magic":    []byte("\x93NUMPZ\x01\x00"),
		"version 2":    append([]byte("\x93NUMPY\x02\x00"), valid[8:]...),
		"short hlen":   valid[:9],
		"short header": valid[:12],
	}
	for name, raw := range cases {
		if _, err := ReadHeader(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s: ReadHeader accepted malformed input", name)
		}
	}
}

func TestReadRowsAt(t *testing.T) {
	raw := write23(t)
	ra := bytes.NewReader(raw)
	h, err := ReadHeader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadHeader: %v", err)
	}
	dst := make([]float64, 3)
	var buf []byte
	for row := 0; row < 2; row++ {
		buf, err = ReadRowsAt(ra, h, row, 1, dst, buf)
		if err != nil {
			t.Fatalf("ReadRowsAt(row %d): %v", row, err)
		}
		for j := 0; j < 3; j++ {
			if want := float64((row*3 + j) * 10); dst[j] != want {
				t.Errorf("row %d col %d = %v, want %v", row, j, dst[j], want)
			}
		}
	}
	// Multi-row read reuses the returned scratch without growing.
	all := make([]float64, 6)
	buf2, err := ReadRowsAt(ra, h, 0, 2, all, buf)
	if err != nil {
		t.Fatalf("ReadRowsAt(all): %v", err)
	}
	if cap(buf) >= 6*8 && &buf2[0] != &buf[0] {
		t.Error("scratch reallocated despite sufficient capacity")
	}
	for i := range all {
		if all[i] != float64(i*10) {
			t.Errorf("all[%d] = %v, want %v", i, all[i], float64(i*10))
		}
	}
}

func TestReadRowsAtFloat32(t *testing.T) {
	var w bytes.Buffer
	if err := writeHeader(&w, "<f4", []int{2, 2}); err != nil {
		t.Fatalf("writeHeader: %v", err)
	}
	for _, v := range []float32{1.5, -2.25, 3, -4} {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		w.Write(b[:])
	}
	raw := w.Bytes()
	h, err := ReadHeader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadHeader: %v", err)
	}
	dst := make([]float64, 2)
	if _, err := ReadRowsAt(bytes.NewReader(raw), h, 1, 1, dst, nil); err != nil {
		t.Fatalf("ReadRowsAt: %v", err)
	}
	if dst[0] != 3 || dst[1] != -4 {
		t.Errorf("row 1 = %v, want [3 -4]", dst)
	}
}

func TestReadRowsAtErrors(t *testing.T) {
	raw := write23(t)
	ra := bytes.NewReader(raw)
	h, err := ReadHeader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadHeader: %v", err)
	}
	dst := make([]float64, 6)

	check := func(name string, h *Header, row, nrows int, dst []float64, want string) {
		t.Helper()
		if _, err := ReadRowsAt(ra, h, row, nrows, dst, nil); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want containing %q", name, err, want)
		}
	}
	check("negative row", h, -1, 1, dst, "out of range")
	check("negative count", h, 0, -1, dst, "out of range")
	check("past end", h, 1, 2, dst, "out of range")
	check("short dst", h, 0, 2, dst[:3], "dst holds")

	fh := *h
	fh.Fortran = true
	check("fortran", &fh, 0, 1, dst, "fortran_order")

	bh := *h
	bh.Descr = ">f8"
	check("bad dtype", &bh, 0, 1, dst, "dtype")

	oh := *h
	oh.Shape = []int{math.MaxInt / 8, 2}
	check("overflow", &oh, 0, 1, dst, "overflows")

	th := *h
	th.Shape = []int{4, 3} // claims more rows than the payload holds
	check("truncated payload", &th, 3, 1, dst, "reading rows")

	// Check refuses exactly the headers no row read can decode: a short
	// payload is only found by reading it.
	for _, ok := range []*Header{h, &th} {
		if err := ok.Check(); err != nil {
			t.Errorf("Check(%v) = %v, want nil", ok.Shape, err)
		}
	}
	for _, bad := range []*Header{&fh, &bh, &oh} {
		if bad.Check() == nil {
			t.Errorf("Check accepted %+v", *bad)
		}
	}
}
