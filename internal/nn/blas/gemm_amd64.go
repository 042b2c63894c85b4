//go:build amd64 && !race

package blas

import (
	"fmt"
	"sync"
)

// useAVX2 is settled once, before main: the host has AVX2 and the OS saves
// the YMM registers.  Without it the Go kernels run, as on any other
// architecture.
var useAVX2 = hasAVX2()

func implName() string {
	if useAVX2 {
		return "avx2"
	}
	return "generic"
}

// cpuid and xgetbv0 (XGETBV with ECX = 0, low word) are in gemm_amd64.s:
// internal/cpu cannot be imported from here and x/sys is not vendored.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax uint32)

// hasAVX2 reads the CPUID leaves and XCR0 that avx2Usable decides on.
// XGETBV faults unless the OS has set OSXSAVE, and leaf 7 is read only
// where the CPU has it.
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	var xcr0, ebx7 uint32
	if ecx1&osxsave != 0 {
		xcr0 = xgetbv0()
	}
	if maxLeaf >= 7 {
		_, ebx7, _, _ = cpuid(7, 0)
	}
	return avx2Usable(maxLeaf, ecx1, xcr0, ebx7)
}

// The CPUID and XCR0 bits avx2Usable tests.
const (
	osxsave  = 1 << 27 // leaf 1 ECX: the OS has enabled XSAVE and XGETBV
	avx      = 1 << 28 // leaf 1 ECX
	xmmYMM   = 6       // XCR0: the OS saves XMM and YMM state
	avx2Leaf = 1 << 5  // leaf 7 EBX
)

// avx2Usable decides from the highest basic CPUID leaf, leaf 1's ECX,
// XCR0 and leaf 7's EBX whether the AVX2 kernels can run: the CPU has AVX
// and AVX2 and the OS saves the YMM registers.
func avx2Usable(maxLeaf, ecx1, xcr0, ebx7 uint32) bool {
	if maxLeaf < 7 {
		return false
	}
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0&xmmYMM != xmmYMM {
		return false
	}
	return ebx7&avx2Leaf != 0
}

// The tiles of gemm_amd64.s: c[j][i] += Σ_t a[j·ars + t·ard]·b[t·ldb + i]
// for rows×cols elements starting at *c, t ascending.
func kern4x8(c *float64, ldc int, a *float64, ars, ard int, b *float64, ldb, t int)
func kern4x4(c *float64, ldc int, a *float64, ars, ard int, b *float64, ldb, t int)
func kern1x8(c *float64, ldc int, a *float64, ars, ard int, b *float64, ldb, t int)
func kern1x4(c *float64, ldc int, a *float64, ars, ard int, b *float64, ldb, t int)

// accTiles accumulates a strided product into the rows×cols block of c:
//
//	c[j·ldc + i] += Σ_t a[j·ars + t·ard] · b[t·ldb + i]    (t = 0 … nt-1 ascending)
//
// with one accumulator per element.  Columns are cut into 8-wide, then one
// 4-wide, register tiles and a Go loop for the last < 4 (accColumn); rows
// into blocks of four, then single rows.  Column tiles are the outer loop so the
// 8-column strip of b — the operand every row block re-reads — stays in L1.
// The extents are checked here, once; the tiles check nothing.
func accTiles(c []float64, ldc int, a []float64, ars, ard int, b []float64, ldb, rows, cols, nt int) {
	if rows <= 0 || cols <= 0 || nt <= 0 {
		return
	}
	if last := (rows-1)*ldc + cols; last > len(c) {
		panic(fmt.Sprintf("blas: accTiles: c has %d elements, tile block ends at %d", len(c), last))
	}
	if last := (rows-1)*ars + (nt-1)*ard + 1; last > len(a) {
		panic(fmt.Sprintf("blas: accTiles: a has %d elements, tile block ends at %d", len(a), last))
	}
	if last := (nt-1)*ldb + cols; last > len(b) {
		panic(fmt.Sprintf("blas: accTiles: b has %d elements, tile block ends at %d", len(b), last))
	}
	i := 0
	for ; i+8 <= cols; i += 8 {
		j := 0
		for ; j+4 <= rows; j += 4 {
			kern4x8(&c[j*ldc+i], ldc, &a[j*ars], ars, ard, &b[i], ldb, nt)
		}
		for ; j < rows; j++ {
			kern1x8(&c[j*ldc+i], ldc, &a[j*ars], ars, ard, &b[i], ldb, nt)
		}
	}
	if i+4 <= cols {
		j := 0
		for ; j+4 <= rows; j += 4 {
			kern4x4(&c[j*ldc+i], ldc, &a[j*ars], ars, ard, &b[i], ldb, nt)
		}
		for ; j < rows; j++ {
			kern1x4(&c[j*ldc+i], ldc, &a[j*ars], ars, ard, &b[i], ldb, nt)
		}
		i += 4
	}
	for ; i < cols; i++ {
		accColumn(c[i:], ldc, a, ars, ard, b[i:], ldb, rows, nt)
	}
}

// accColumn is accTiles for one column (c[j·ldc] += Σ_t a[j·ars + t·ard] ·
// b[t·ldb]), four rows at a time: four independent accumulators, each
// still summing its t terms in ascending order, so the adds overlap
// instead of waiting on one another.
func accColumn(c []float64, ldc int, a []float64, ars, ard int, b []float64, ldb, rows, nt int) {
	j := 0
	for ; j+4 <= rows; j += 4 {
		s0, s1, s2, s3 := c[j*ldc], c[(j+1)*ldc], c[(j+2)*ldc], c[(j+3)*ldc]
		a0, a1, a2, a3 := a[j*ars:], a[(j+1)*ars:], a[(j+2)*ars:], a[(j+3)*ars:]
		for t := 0; t < nt; t++ {
			bt, at := b[t*ldb], t*ard
			s0 += a0[at] * bt
			s1 += a1[at] * bt
			s2 += a2[at] * bt
			s3 += a3[at] * bt
		}
		c[j*ldc], c[(j+1)*ldc], c[(j+2)*ldc], c[(j+3)*ldc] = s0, s1, s2, s3
	}
	for ; j < rows; j++ {
		s := c[j*ldc]
		aj := a[j*ars:]
		for t := 0; t < nt; t++ {
			s += aj[t*ard] * b[t*ldb]
		}
		c[j*ldc] = s
	}
}

// fwdPool holds gemmBias's per-call workspace — x packed transposed,
// then the transposed pre-activations, in one buffer.  It is pooled, not
// cached on anything a caller owns, so concurrent replicas never share one
// and nothing derived from the weights outlives a call.
var fwdPool = sync.Pool{New: func() any { return new([]float64) }}

// minFwdDim is the smallest layer side gemmBias packs for.  A layer
// with fewer inputs or outputs — the embedding nets' 1→25, the fitting
// net's 240→1 — goes to the Go kernel: the two transposing passes move
// n·in + n·out elements and the product has only n·in·out terms to repay
// them with.  Measured break-even on the 2-vCPU sandbox lies between 4 and
// 8 on either side (12×240×1: 1.0 µs in Go, 3.2 µs packed; 12×240×8: 6.2 µs
// against 4.5 µs).  Both kernels give the same bits, so the cut is speed
// only.
const minFwdDim = 8

// gemmBias puts the SIMD lanes along the batch rows: the reduction index
// k is contiguous in both x and w, so neither can supply a lane dimension
// as stored.  x is packed as xᵀ (in × npad, rows padded with zeros to a
// multiple of four — n·in moves against n·in·out products), preactᵀ
// (out × npad) starts from the bias and takes the product through
// accTiles, and one pass un-transposes it.  The padding lanes compute on
// zeros and are never read back.
func gemmBias(preact, x, w, bias []float64, n, in, outDim int) {
	if !useAVX2 || in < minFwdDim || outDim < minFwdDim {
		gemmBiasGeneric(preact, x, w, bias, n, in, outDim)
		return
	}
	npad := (n + 3) &^ 3
	buf := fwdPool.Get().(*[]float64)
	if need := (in + outDim) * npad; cap(*buf) < need {
		*buf = make([]float64, need)
	}
	xt, ct := (*buf)[:in*npad], (*buf)[in*npad:(in+outDim)*npad]
	for r := 0; r < n; r++ {
		for k, v := range x[r*in : (r+1)*in] {
			xt[k*npad+r] = v
		}
	}
	for r := n; r < npad; r++ {
		for k := 0; k < in; k++ {
			xt[k*npad+r] = 0
		}
	}
	for o := 0; o < outDim; o++ {
		row := ct[o*npad : (o+1)*npad]
		bo := bias[o]
		for r := range row {
			row[r] = bo
		}
	}
	accTiles(ct, npad, w, in, 1, xt, npad, outDim, npad, in)
	for r := 0; r < n; r++ {
		pr := preact[r*outDim : (r+1)*outDim]
		for o := range pr {
			pr[o] = ct[o*npad+r]
		}
	}
	fwdPool.Put(buf)
}

func gemmNN(dx, g, w []float64, n, in, outDim int) {
	if !useAVX2 {
		gemmNNGeneric(dx, g, w, n, in, outDim)
		return
	}
	dx = dx[:n*in]
	for i := range dx {
		dx[i] = 0
	}
	accTiles(dx, in, g, outDim, 1, w, in, n, in, outDim)
}

func accumGrad(gradW, gradB, g, x []float64, n, in, outDim int) {
	if !useAVX2 {
		accumGradGeneric(gradW, gradB, g, x, n, in, outDim)
		return
	}
	for r := 0; r < n; r++ {
		gr := g[r*outDim : (r+1)*outDim]
		for o, a := range gr {
			gradB[o] += a
		}
	}
	accTiles(gradW, in, g, 1, outDim, x, in, outDim, in, n)
}
