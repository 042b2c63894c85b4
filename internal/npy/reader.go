package npy

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Header is the parsed metadata of a .npy stream: everything needed to
// locate and decode any row of the payload without reading the rest.
// It is the random-access counterpart to Read, used by the out-of-core
// dataset layer to pull single frames out of multi-gigabyte shards.
type Header struct {
	// Descr is the dtype string, e.g. "<f8".
	Descr string
	// Fortran reports fortran_order; row access requires C order.
	Fortran bool
	// Shape holds the dimension sizes, outermost first.
	Shape []int
	// PayloadOffset is the byte offset of the first element from the
	// start of the stream.
	PayloadOffset int64
}

// Rows returns the size of the outermost dimension (1 for a 0-d array):
// the number of independently addressable rows.
func (h *Header) Rows() int {
	if len(h.Shape) == 0 {
		return 1
	}
	return h.Shape[0]
}

// RowLen returns the number of elements per row — the product of the
// inner dimensions.
func (h *Header) RowLen() int {
	n := 1
	for _, s := range h.Shape[min(1, len(h.Shape)):] {
		n *= s
	}
	return n
}

// elems returns the total element count, guarding against shapes whose
// byte size overflows int.
func (h *Header) elems() (int, error) {
	n := 1
	for _, s := range h.Shape {
		if s != 0 && n > math.MaxInt/8/s {
			return 0, fmt.Errorf("npy: shape %v overflows element count", h.Shape)
		}
		n *= s
	}
	return n, nil
}

// ReadHeader parses the magic, version and dict header of a .npy stream
// positioned at its start, consuming exactly the bytes before the
// payload (PayloadOffset of them).  The dtype is not validated here:
// Check does that.
func ReadHeader(r io.Reader) (*Header, error) {
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("npy: reading magic: %w", err)
	}
	for i := 0; i < 6; i++ {
		if head[i] != magic[i] {
			return nil, errors.New("npy: bad magic string")
		}
	}
	if head[6] != 1 {
		return nil, fmt.Errorf("npy: unsupported format version %d.%d", head[6], head[7])
	}
	var hlen [2]byte
	if _, err := io.ReadFull(r, hlen[:]); err != nil {
		return nil, fmt.Errorf("npy: reading header length: %w", err)
	}
	header := make([]byte, binary.LittleEndian.Uint16(hlen[:]))
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, fmt.Errorf("npy: reading header: %w", err)
	}
	descr, fortran, shape, err := parseHeader(string(header))
	if err != nil {
		return nil, err
	}
	return &Header{
		Descr:         descr,
		Fortran:       fortran,
		Shape:         shape,
		PayloadOffset: int64(len(magic) + 2 + len(header)),
	}, nil
}

// Check reports whether ReadRowsAt can decode rows of the array h
// describes: C order, a supported dtype and an element count that fits
// in int.  A reader that opens a file once and reads its rows later calls
// it at open, so an unreadable array is refused before any row is asked
// for.
func (h *Header) Check() error {
	_, _, err := h.decoder()
	return err
}

func (h *Header) decoder() (elemSize int, conv func([]byte) float64, err error) {
	if h.Fortran {
		return 0, nil, errors.New("npy: fortran_order arrays are not supported")
	}
	if elemSize, conv, err = dtypeInfo(h.Descr); err != nil {
		return 0, nil, err
	}
	if _, err := h.elems(); err != nil {
		return 0, nil, err
	}
	return elemSize, conv, nil
}

// ReadRowsAt decodes rows [row, row+nrows) of the array described by h
// into dst (which must hold nrows·RowLen elements) using positioned
// reads, so concurrent callers can share one ReaderAt.  buf is optional
// reusable byte scratch; the (possibly grown) scratch is returned for
// the next call, making steady-state row reads allocation-free.
func ReadRowsAt(ra io.ReaderAt, h *Header, row, nrows int, dst []float64, buf []byte) ([]byte, error) {
	elemSize, conv, err := h.decoder()
	if err != nil {
		return buf, err
	}
	rowLen := h.RowLen()
	if row < 0 || nrows < 0 || row+nrows > h.Rows() {
		return buf, fmt.Errorf("npy: rows [%d, %d) out of range [0, %d)", row, row+nrows, h.Rows())
	}
	n := nrows * rowLen
	if len(dst) < n {
		return buf, fmt.Errorf("npy: dst holds %d elements, need %d", len(dst), n)
	}
	nbytes := n * elemSize
	if cap(buf) < nbytes {
		buf = make([]byte, nbytes)
	}
	buf = buf[:cap(buf)]
	off := h.PayloadOffset + int64(row)*int64(rowLen)*int64(elemSize)
	if _, err := ra.ReadAt(buf[:nbytes], off); err != nil {
		return buf, fmt.Errorf("npy: reading rows [%d, %d): %w", row, row+nrows, err)
	}
	for i := 0; i < n; i++ {
		dst[i] = conv(buf[i*elemSize:])
	}
	return buf, nil
}
