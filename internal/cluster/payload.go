package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// The evaluation payloads carry float64 vectors as raw IEEE-754 bits, as
// the paper's Dask fleet shipped task arguments as binary objects rather
// than decimal text (§2.2.5).  Both have the same layout:
//
//	kind byte | v[0] | v[1] | … | v[k-1]
//
// where each v[i] is the 8 bytes of math.Float64bits(v[i]), little-endian.
// A task payload (kind 'g') carries the genome and a result payload (kind
// 'f') the fitness, so a 7-gene task is 57 bytes and a 2-objective result
// 17.  Only finite values travel: NaN and ±Inf are refused when encoding
// and when decoding, so a foreign peer's NaN bits fail the evaluation
// instead of reaching the sort.
type payloadKind byte

const (
	genomeKind  payloadKind = 'g'
	fitnessKind payloadKind = 'f'
)

func (k payloadKind) String() string {
	if k == genomeKind {
		return "genome"
	}
	return "fitness"
}

// nonFinite describes value i of a payload, which is NaN or ±Inf.
func nonFinite(kind payloadKind, i int, f float64) string {
	return fmt.Sprintf("%s[%d] is %v", kind, i, f)
}

// appendPayload appends v as a payload of the given kind to dst.
func appendPayload(dst []byte, kind payloadKind, v []float64) ([]byte, error) {
	dst = append(dst, byte(kind))
	for i, f := range v {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, errors.New("cluster: " + nonFinite(kind, i, f))
		}
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
	}
	return dst, nil
}

// parsePayload reads a payload of the given kind.  A payload with no
// values decodes to nil.
func parsePayload(data []byte, kind payloadKind) ([]float64, error) {
	if len(data) == 0 || payloadKind(data[0]) != kind {
		return nil, fmt.Errorf("cluster: not a %s payload", kind)
	}
	body := data[1:]
	if len(body)%8 != 0 {
		return nil, fmt.Errorf("cluster: bad %s payload: %d value bytes, not a multiple of 8", kind, len(body))
	}
	if len(body) == 0 {
		return nil, nil
	}
	out := make([]float64, len(body)/8)
	for i := range out {
		f := math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("cluster: bad %s payload: %s", kind, nonFinite(kind, i, f))
		}
		out[i] = f
	}
	return out, nil
}
