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

func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if xgetbv0()&6 != 6 { // XCR0: the OS saves XMM and YMM state
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0 // AVX2
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
// 4-wide, register tiles and a scalar loop for the last < 4; rows into
// blocks of four, then single rows.  Column tiles are the outer loop so the
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
		for j := 0; j < rows; j++ {
			s := c[j*ldc+i]
			aj := a[j*ars:]
			for t := 0; t < nt; t++ {
				s += aj[t*ard] * b[t*ldb+i]
			}
			c[j*ldc+i] = s
		}
	}
}

// fwdPool holds gemmBiasAct's per-call workspace — x packed transposed,
// then the transposed pre-activations, in one buffer.  It is pooled, not
// cached on anything a caller owns, so concurrent replicas never share one
// and nothing derived from the weights outlives a call.
var fwdPool = sync.Pool{New: func() any { return new([]float64) }}

// minFwdDim is the smallest layer side gemmBiasAct packs for.  A layer
// with fewer inputs or outputs — the embedding nets' 1→25, the fitting
// net's 240→1 — goes to the Go kernel: the two transposing passes move
// n·in + n·out elements and the product has only n·in·out terms to repay
// them with.  Measured break-even on the 2-vCPU sandbox lies between 4 and
// 8 on either side (12×240×1: 1.0 µs in Go, 3.2 µs packed; 12×240×8: 6.2 µs
// against 4.5 µs).  Both kernels give the same bits, so the cut is speed
// only.
const minFwdDim = 8

// gemmBiasAct puts the SIMD lanes along the batch rows: the reduction
// index k is contiguous in both x and w, so neither can supply a lane
// dimension as stored.  x is packed as xᵀ (in × npad, rows padded with
// zeros to a multiple of four — n·in moves against n·in·out products),
// preactᵀ (out × npad) starts from the bias and takes the product through
// accTiles, and one pass un-transposes it and applies act.  The padding
// lanes compute on zeros and are never read back.
func gemmBiasAct(preact, out, x, w, bias []float64, n, in, outDim int, act func(float64) float64) {
	if !useAVX2 || in < minFwdDim || outDim < minFwdDim {
		gemmBiasActGeneric(preact, out, x, w, bias, n, in, outDim, act)
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
		yr := out[r*outDim : (r+1)*outDim]
		for o := range pr {
			v := ct[o*npad+r]
			pr[o] = v
			yr[o] = act(v)
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
