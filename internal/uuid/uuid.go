// Package uuid implements RFC 4122 version-4 (random) UUIDs.
//
// The paper's evaluation workflow assigns every individual a UUID at
// creation time and trains DeePMD inside a directory named after it
// (§2.2.4).  This package provides the same facility without external
// dependencies.
package uuid

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
)

// UUID is a 128-bit RFC 4122 universally unique identifier.
type UUID [16]byte

// Nil is the zero UUID, with all bits set to zero.
var Nil UUID

// New returns a freshly generated version-4 UUID.  It panics only if the
// operating system's entropy source is broken, which is unrecoverable.
func New() UUID {
	u, err := NewRandom()
	if err != nil {
		panic("uuid: entropy source failure: " + err.Error())
	}
	return u
}

// NewRandom returns a version-4 UUID or an error if reading entropy fails.
func NewRandom() (UUID, error) {
	var u UUID
	if _, err := rand.Read(u[:]); err != nil {
		return Nil, err
	}
	u[6] = (u[6] & 0x0f) | 0x40 // version 4
	u[8] = (u[8] & 0x3f) | 0x80 // RFC 4122 variant
	return u, nil
}

// String renders the UUID in canonical 8-4-4-4-12 lower-case hex form.
func (u UUID) String() string {
	var buf [36]byte
	return string(u.Append(buf[:0]))
}

// Append appends the String form of u to dst.
func (u UUID) Append(dst []byte) []byte {
	dst = hex.AppendEncode(dst, u[0:4])
	dst = append(dst, '-')
	dst = hex.AppendEncode(dst, u[4:6])
	dst = append(dst, '-')
	dst = hex.AppendEncode(dst, u[6:8])
	dst = append(dst, '-')
	dst = hex.AppendEncode(dst, u[8:10])
	dst = append(dst, '-')
	return hex.AppendEncode(dst, u[10:16])
}

// Version reports the UUID version field (4 for values from New).
func (u UUID) Version() int { return int(u[6] >> 4) }

// ErrInvalidFormat is returned by Parse for malformed input.
var ErrInvalidFormat = errors.New("uuid: invalid format")

// Parse decodes a canonical 8-4-4-4-12 textual UUID.
func Parse(s string) (UUID, error) {
	if len(s) != 36 || s[8] != '-' || s[13] != '-' || s[18] != '-' || s[23] != '-' {
		return Nil, fmt.Errorf("%w: %q", ErrInvalidFormat, s)
	}
	hexOnly := strings.ReplaceAll(s, "-", "")
	raw, err := hex.DecodeString(hexOnly)
	if err != nil {
		return Nil, fmt.Errorf("%w: %q", ErrInvalidFormat, s)
	}
	var u UUID
	copy(u[:], raw)
	return u, nil
}
