// Package blas holds the batched kernels behind nn's
// ForwardBatch/BackwardBatch paths.  Everything is row-major float64,
// shaped exactly like the one-row dense loops refcheck keeps as the
// reference:
//
//	x      n×in        batch of inputs (rows are samples)
//	w      out×in      layer weights, w[o][k] at o*in+k
//	g      n×out       upstream gradients scaled by the activation
//	                   derivative
//
// Fixed-reduction-order contract: for every output element the reduction
// index — k (inputs) in the forward pass, o (outputs) in the
// input-gradient pass, r (samples) in the parameter-gradient pass — is
// summed strictly in ascending order into a single accumulator, each term
// a rounded product followed by a rounded add, exactly like the scalar
// per-sample loops.  Blocking, unrolling and SIMD lanes are applied only
// across independent output elements, never as a reassociation of a
// reduction, so every kernel here is bit-identical to its scalar
// counterpart for any batch size, which is what keeps lcurve.out and the
// golden campaign byte-stable.
//
// Two implementations sit under the three entry points.  The pure-Go
// kernels (gemm_generic.go) block over rows and columns.  On amd64 one
// AVX2 micro-kernel (gemm_amd64.s, driven by accTiles) computes
// c[j][i] += Σ_t a[j][t]·b[t][i] on a 4×8 register tile whose four-wide
// lanes lie along i, and the entry points differ only in the strides they
// hand it:
//
//	GemmNN       lanes across input columns i, reduction over o
//	AccumGrad    lanes across input columns i, reduction over r
//	GemmBiasAct  lanes across batch rows r (x is packed transposed per
//	             call), reduction over k
//
// A lane is one output element's accumulator: VMULPD and VADDPD round
// each lane exactly as MULSD and ADDSD round a scalar, so the lanes change
// no bit.  Fused multiply-add (VFMADD*) skips the product's rounding and
// a lane laid along a reduction index sums in a different order; either
// would change every golden, and neither is used.
//
// The path is chosen from what the build and the host show, never from an
// option: the assembly is built for amd64 only, is used when CPUID reports
// AVX2 with the YMM state enabled by the OS, and is left out under the
// race detector, which cannot see loads and stores made in assembly — the
// Go kernels keep every GEMM access visible to it, and the race run keeps
// the Go kernels pinned to the same goldens.  Impl reports the choice.
package blas

import "fmt"

// Impl names the kernels this process runs: "avx2" or "generic".  Both
// produce the same bits; only speed differs.
func Impl() string { return implName() }

// GemmBiasAct computes the fused dense forward pass over a batch:
//
//	preact[r][o] = bias[o] + Σ_k x[r][k]·w[o][k]   (k ascending)
//	out[r][o]    = act(preact[r][o])
//
// preact and out are n×out and fully overwritten.
func GemmBiasAct(preact, out, x, w, bias []float64, n, in, outDim int, act func(float64) float64) {
	checkDims("GemmBiasAct", n, in, outDim)
	checkLen("GemmBiasAct", "preact", len(preact), "n×out", n*outDim)
	checkLen("GemmBiasAct", "out", len(out), "n×out", n*outDim)
	checkLen("GemmBiasAct", "x", len(x), "n×in", n*in)
	checkLen("GemmBiasAct", "w", len(w), "out×in", outDim*in)
	checkLen("GemmBiasAct", "bias", len(bias), "out", outDim)
	gemmBiasAct(preact, out, x, w, bias, n, in, outDim, act)
}

// GemmNN computes the transpose-aware input-gradient product dX = G·W:
//
//	dx[r][i] = Σ_o g[r][o]·w[o][i]   (o ascending)
//
// dx is n×in and fully overwritten: zeroed, then accumulated into, as the
// one-row backward does.
func GemmNN(dx, g, w []float64, n, in, outDim int) {
	checkDims("GemmNN", n, in, outDim)
	checkLen("GemmNN", "dx", len(dx), "n×in", n*in)
	checkLen("GemmNN", "g", len(g), "n×out", n*outDim)
	checkLen("GemmNN", "w", len(w), "out×in", outDim*in)
	gemmNN(dx, g, w, n, in, outDim)
}

// AccumGrad accumulates the transpose-aware parameter gradients
// dW += Gᵀ·X and dB += column sums of G:
//
//	gradW[o][i] += Σ_r g[r][o]·x[r][i]   (r ascending)
//	gradB[o]    += Σ_r g[r][o]           (r ascending)
//
// Each sum starts from the stored gradient and adds its terms one after
// another, so the result is bit-identical to n sequential one-row
// backward passes.
func AccumGrad(gradW, gradB, g, x []float64, n, in, outDim int) {
	checkDims("AccumGrad", n, in, outDim)
	checkLen("AccumGrad", "gradW", len(gradW), "out×in", outDim*in)
	checkLen("AccumGrad", "gradB", len(gradB), "out", outDim)
	checkLen("AccumGrad", "g", len(g), "n×out", n*outDim)
	checkLen("AccumGrad", "x", len(x), "n×in", n*in)
	accumGrad(gradW, gradB, g, x, n, in, outDim)
}

// The checks below run once per operand per call, before any operand is
// read or written: the assembly kernels go through raw pointers, so a
// short slice must stop here, with nothing half-written, rather than at a
// bounds check somewhere inside the loops.

func checkDims(fn string, n, in, outDim int) {
	if n < 0 || in < 0 || outDim < 0 {
		panic(fmt.Sprintf("blas: %s: negative dimension (n, in, out) = (%d, %d, %d)", fn, n, in, outDim))
	}
}

func checkLen(fn, operand string, have int, dims string, need int) {
	if have < need {
		panic(shortOperand(fn, operand, have, dims, need))
	}
}

// shortOperand is kept out of line so that checkLen's comparison inlines
// into the entry points and only a failing call pays for the message.
//
//go:noinline
func shortOperand(fn, operand string, have int, dims string, need int) string {
	return fmt.Sprintf("blas: %s: %s has %d elements, need %s = %d", fn, operand, have, dims, need)
}
