//go:build amd64 && !race

package blas

import (
	"fmt"
	"testing"
)

// forEachDispatch runs fn as one subtest per kernel path this build can
// take, named as Impl names it: the Go kernels, the AVX2 tiles with the
// 16-wide cut off, and the AVX-512 cascade.  A path the host cannot run is
// a visible skip.  The process's own choice is restored afterwards.
func forEachDispatch(t *testing.T, fn func(t *testing.T)) {
	defer func(saved isa) { kernels = saved }(kernels)
	host := hostISA()
	for d := isaGeneric; d <= isaAVX512; d++ {
		t.Run(isaNames[d], func(t *testing.T) {
			if d > host {
				t.Skipf("host kernels are %s", isaNames[host])
			}
			kernels = d
			fn(t)
		})
	}
}

// TestAVX2Usable walks avx2Usable through each reason to refuse the
// assembly and the one way to accept it.
func TestAVX2Usable(t *testing.T) {
	const ecx1, xcr0, ebx7 = osxsave | avx, 0xe7, avx2Leaf
	for _, c := range []struct {
		name                      string
		maxLeaf, ecx1, xcr0, ebx7 uint32
		want                      bool
	}{
		{"no leaf 7", 6, ecx1, xcr0, ebx7, false},
		{"no OSXSAVE", 0xd, avx, xcr0, ebx7, false},
		{"no AVX", 0xd, osxsave, xcr0, ebx7, false},
		{"OS saves XMM only", 0xd, ecx1, 0x3, ebx7, false},
		{"OS saves YMM only", 0xd, ecx1, 0x5, ebx7, false},
		{"no AVX2", 0xd, ecx1, xcr0, ^uint32(avx2Leaf), false},
		{"AVX2 with YMM saved", 0xd, ecx1, xcr0, ebx7, true},
		{"AVX2 at exactly leaf 7", 7, ecx1, xmmYMM, ebx7, true},
	} {
		if got := avx2Usable(c.maxLeaf, c.ecx1, c.xcr0, c.ebx7); got != c.want {
			t.Errorf("%s: avx2Usable(%#x, %#x, %#x, %#x) = %v, want %v", c.name, c.maxLeaf, c.ecx1, c.xcr0, c.ebx7, got, c.want)
		}
	}
}

// TestAVX512Usable walks avx512Usable through each reason to keep the
// 16-wide cut off and the one way to take it.  The cut is reachable only
// where the AVX2 path is.
func TestAVX512Usable(t *testing.T) {
	const ecx1, xcr0, ebx7 = osxsave | avx, 0xe7, avx2Leaf | avx512fLeaf
	for _, c := range []struct {
		name                      string
		maxLeaf, ecx1, xcr0, ebx7 uint32
		want                      bool
	}{
		{"no leaf 7", 6, ecx1, xcr0, ebx7, false},
		{"no AVX512F", 0xd, ecx1, xcr0, avx2Leaf, false},
		{"no AVX2", 0xd, ecx1, xcr0, avx512fLeaf, false},
		{"OS saves YMM only", 0xd, ecx1, 0x07, ebx7, false},
		{"OS saves opmask, not ZMM", 0xd, ecx1, 0x27, ebx7, false},
		{"OS saves ZMM0-15, not ZMM16-31", 0xd, ecx1, 0x67, ebx7, false},
		{"AVX512F with ZMM saved", 0xd, ecx1, xcr0, ebx7, true},
		{"AVX512F at exactly leaf 7 and XCR0 0xe6", 7, ecx1, xmmYMMZMM, ebx7, true},
	} {
		if got := avx512Usable(c.maxLeaf, c.ecx1, c.xcr0, c.ebx7); got != c.want {
			t.Errorf("%s: avx512Usable(%#x, %#x, %#x, %#x) = %v, want %v", c.name, c.maxLeaf, c.ecx1, c.xcr0, c.ebx7, got, c.want)
		}
	}
}

// TestAccTilesPanicsOnShortOperand reaches accTiles' own guards, which
// the entry points' checks leave no caller able to trip: each of c, a and
// b one element short of the tile block it must hold.  The guards stand
// in front of the assembly's raw pointers.
func TestAccTilesPanicsOnShortOperand(t *testing.T) {
	const ldc, ars, ard, ldb, rows, cols, nt = 8, 3, 1, 8, 2, 8, 3
	c, a, b := make([]float64, (rows-1)*ldc+cols), make([]float64, (rows-1)*ars+(nt-1)*ard+1), make([]float64, (nt-1)*ldb+cols)
	for _, tc := range []struct {
		name    string
		need    int
		c, a, b []float64
	}{
		{"c", len(c), c[:len(c)-1], a, b},
		{"a", len(a), c, a[:len(a)-1], b},
		{"b", len(b), c, a, b[:len(b)-1]},
	} {
		want := fmt.Sprintf("blas: accTiles: %s has %d elements, tile block ends at %d", tc.name, tc.need-1, tc.need)
		if got := panicText(func() { accTiles(tc.c, ldc, tc.a, ars, ard, tc.b, ldb, rows, cols, nt) }); got != want {
			t.Errorf("short %s: panic %q, want %q", tc.name, got, want)
		}
	}
	accTiles(c, ldc, a, ars, ard, b, ldb, rows, cols, nt) // full operands: no panic
}
