package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
)

// The evaluation payloads are {"genome":[…]} (task) and {"fitness":[…]}
// (result).  appendPayload writes exactly the bytes encoding/json writes
// for a struct with one []float64 field, and parsePayload reads exactly
// that layout — no whitespace, that one key, a JSON number per element
// or null for the whole slice — so the wire bytes are the ones peers and
// fuzz corpora have always seen, without reflection on every task.
const (
	genomeKey  = "genome"
	fitnessKey = "fitness"
)

// appendPayload appends {"key":[v…]} to dst, or {"key":null} for a nil
// v, as json.Marshal does.  NaN and ±Inf fail with json.Marshal's error.
func appendPayload(dst []byte, key string, v []float64) ([]byte, error) {
	dst = append(dst, `{"`...)
	dst = append(dst, key...)
	dst = append(dst, `":`...)
	if v == nil {
		return append(dst, "null}"...), nil
	}
	dst = append(dst, '[')
	for i, f := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = appendFloat(dst, f); err != nil {
			return nil, err
		}
	}
	return append(dst, "]}"...), nil
}

// appendFloat formats f as encoding/json does: ES6 number style, %f
// between 1e-6 and 1e21 and %e outside, with e-07 cleaned up to e-7.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

var errPayload = errors.New("not a canonical payload")

// parsePayload reads {"key":[…]} or {"key":null}.  Every input it
// accepts, json.Unmarshal accepts too and decodes to the same bits; a
// layout appendPayload cannot write (whitespace, another key, a null
// element) is rejected.
func parsePayload(data []byte, key string) ([]float64, error) {
	n := len(key)
	if len(data) < n+5 || data[0] != '{' || data[1] != '"' || string(data[2:2+n]) != key ||
		data[2+n] != '"' || data[3+n] != ':' || data[len(data)-1] != '}' {
		return nil, errPayload
	}
	body := data[4+n : len(data)-1]
	if string(body) == "null" {
		return nil, nil
	}
	if len(body) < 2 || body[0] != '[' || body[len(body)-1] != ']' {
		return nil, errPayload
	}
	body = body[1 : len(body)-1]
	if len(body) == 0 {
		return []float64{}, nil
	}
	out := make([]float64, 0, bytes.Count(body, []byte{','})+1)
	for len(body) > 0 {
		num := body
		if i := bytes.IndexByte(body, ','); i >= 0 {
			num, body = body[:i], body[i+1:]
			if len(body) == 0 {
				return nil, errPayload // trailing comma
			}
		} else {
			body = nil
		}
		if !isJSONNumber(num) {
			return nil, errPayload
		}
		f, err := strconv.ParseFloat(string(num), 64)
		if err != nil {
			return nil, err // out of float64 range, as json.Unmarshal rejects
		}
		out = append(out, f)
	}
	return out, nil
}

// isJSONNumber reports whether s is one JSON number:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func isJSONNumber(s []byte) bool {
	i := 0
	if i < len(s) && s[i] == '-' {
		i++
	}
	switch {
	case i < len(s) && s[i] == '0':
		i++
	case i < len(s) && '1' <= s[i] && s[i] <= '9':
		i = skipDigits(s, i)
	default:
		return false
	}
	if i < len(s) && s[i] == '.' {
		j := skipDigits(s, i+1)
		if j == i+1 {
			return false
		}
		i = j
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		j := skipDigits(s, i)
		if j == i {
			return false
		}
		i = j
	}
	return i == len(s)
}

func skipDigits(s []byte, i int) int {
	for i < len(s) && '0' <= s[i] && s[i] <= '9' {
		i++
	}
	return i
}
