package blas

// The pure-Go kernels: the only path on non-amd64 builds, on amd64 hosts
// without AVX2 and under the race detector, and the reference the
// assembly path is compared against bit for bit (kernel_test.go).

// gemmBiasGeneric is GemmBias in Go.  Rows are processed in blocks of
// eight (then four) so each weight row is loaded once per block; the k
// loop is unrolled with sequential adds into each row's accumulator,
// preserving the scalar summation order bit-for-bit.
func gemmBiasGeneric(preact, x, w, bias []float64, n, in, outDim int) {
	r := 0
	for ; r+8 <= n; r += 8 {
		x0 := x[r*in : r*in+in]
		x1 := x[(r+1)*in : (r+1)*in+in]
		x2 := x[(r+2)*in : (r+2)*in+in]
		x3 := x[(r+3)*in : (r+3)*in+in]
		x4 := x[(r+4)*in : (r+4)*in+in]
		x5 := x[(r+5)*in : (r+5)*in+in]
		x6 := x[(r+6)*in : (r+6)*in+in]
		x7 := x[(r+7)*in : (r+7)*in+in]
		for o := 0; o < outDim; o++ {
			wrow := w[o*in : o*in+in]
			b := bias[o]
			s0, s1, s2, s3 := b, b, b, b
			s4, s5, s6, s7 := b, b, b, b
			k := 0
			for ; k+2 <= in; k += 2 {
				w0, w1 := wrow[k], wrow[k+1]
				s0 += w0 * x0[k]
				s0 += w1 * x0[k+1]
				s1 += w0 * x1[k]
				s1 += w1 * x1[k+1]
				s2 += w0 * x2[k]
				s2 += w1 * x2[k+1]
				s3 += w0 * x3[k]
				s3 += w1 * x3[k+1]
				s4 += w0 * x4[k]
				s4 += w1 * x4[k+1]
				s5 += w0 * x5[k]
				s5 += w1 * x5[k+1]
				s6 += w0 * x6[k]
				s6 += w1 * x6[k+1]
				s7 += w0 * x7[k]
				s7 += w1 * x7[k+1]
			}
			for ; k < in; k++ {
				wk := wrow[k]
				s0 += wk * x0[k]
				s1 += wk * x1[k]
				s2 += wk * x2[k]
				s3 += wk * x3[k]
				s4 += wk * x4[k]
				s5 += wk * x5[k]
				s6 += wk * x6[k]
				s7 += wk * x7[k]
			}
			preact[r*outDim+o] = s0
			preact[(r+1)*outDim+o] = s1
			preact[(r+2)*outDim+o] = s2
			preact[(r+3)*outDim+o] = s3
			preact[(r+4)*outDim+o] = s4
			preact[(r+5)*outDim+o] = s5
			preact[(r+6)*outDim+o] = s6
			preact[(r+7)*outDim+o] = s7
		}
	}
	for ; r+4 <= n; r += 4 {
		x0 := x[r*in : r*in+in]
		x1 := x[(r+1)*in : (r+1)*in+in]
		x2 := x[(r+2)*in : (r+2)*in+in]
		x3 := x[(r+3)*in : (r+3)*in+in]
		p0 := preact[r*outDim : r*outDim+outDim]
		p1 := preact[(r+1)*outDim : (r+1)*outDim+outDim]
		p2 := preact[(r+2)*outDim : (r+2)*outDim+outDim]
		p3 := preact[(r+3)*outDim : (r+3)*outDim+outDim]
		for o := 0; o < outDim; o++ {
			wrow := w[o*in : o*in+in]
			b := bias[o]
			s0, s1, s2, s3 := b, b, b, b
			k := 0
			for ; k+4 <= in; k += 4 {
				w0, w1, w2, w3 := wrow[k], wrow[k+1], wrow[k+2], wrow[k+3]
				s0 += w0 * x0[k]
				s0 += w1 * x0[k+1]
				s0 += w2 * x0[k+2]
				s0 += w3 * x0[k+3]
				s1 += w0 * x1[k]
				s1 += w1 * x1[k+1]
				s1 += w2 * x1[k+2]
				s1 += w3 * x1[k+3]
				s2 += w0 * x2[k]
				s2 += w1 * x2[k+1]
				s2 += w2 * x2[k+2]
				s2 += w3 * x2[k+3]
				s3 += w0 * x3[k]
				s3 += w1 * x3[k+1]
				s3 += w2 * x3[k+2]
				s3 += w3 * x3[k+3]
			}
			for ; k < in; k++ {
				wk := wrow[k]
				s0 += wk * x0[k]
				s1 += wk * x1[k]
				s2 += wk * x2[k]
				s3 += wk * x3[k]
			}
			p0[o], p1[o], p2[o], p3[o] = s0, s1, s2, s3
		}
	}
	for ; r < n; r++ { // ragged tail, one row at a time
		xr := x[r*in : r*in+in]
		pr := preact[r*outDim : r*outDim+outDim]
		for o := 0; o < outDim; o++ {
			wrow := w[o*in : o*in+in]
			s := bias[o]
			k := 0
			for ; k+4 <= in; k += 4 {
				s += wrow[k] * xr[k]
				s += wrow[k+1] * xr[k+1]
				s += wrow[k+2] * xr[k+2]
				s += wrow[k+3] * xr[k+3]
			}
			for ; k < in; k++ {
				s += wrow[k] * xr[k]
			}
			pr[o] = s
		}
	}
}

// gemmNNGeneric is GemmNN in Go.  The o loop is outermost per row block —
// matching the one-row backward, which walks outputs outermost — so each
// dx element accumulates its o terms in the scalar order; the four-wide
// unroll is across i (independent accumulators).
func gemmNNGeneric(dx, g, w []float64, n, in, outDim int) {
	dx = dx[:n*in]
	for i := range dx {
		dx[i] = 0
	}
	r := 0
	for ; r+4 <= n; r += 4 {
		d0 := dx[r*in : r*in+in]
		d1 := dx[(r+1)*in : (r+1)*in+in]
		d2 := dx[(r+2)*in : (r+2)*in+in]
		d3 := dx[(r+3)*in : (r+3)*in+in]
		g0 := g[r*outDim : r*outDim+outDim]
		g1 := g[(r+1)*outDim : (r+1)*outDim+outDim]
		g2 := g[(r+2)*outDim : (r+2)*outDim+outDim]
		g3 := g[(r+3)*outDim : (r+3)*outDim+outDim]
		for o := 0; o < outDim; o++ {
			wrow := w[o*in : o*in+in]
			a0, a1, a2, a3 := g0[o], g1[o], g2[o], g3[o]
			k := 0
			for ; k+4 <= in; k += 4 {
				w0, w1, w2, w3 := wrow[k], wrow[k+1], wrow[k+2], wrow[k+3]
				d0[k] += a0 * w0
				d0[k+1] += a0 * w1
				d0[k+2] += a0 * w2
				d0[k+3] += a0 * w3
				d1[k] += a1 * w0
				d1[k+1] += a1 * w1
				d1[k+2] += a1 * w2
				d1[k+3] += a1 * w3
				d2[k] += a2 * w0
				d2[k+1] += a2 * w1
				d2[k+2] += a2 * w2
				d2[k+3] += a2 * w3
				d3[k] += a3 * w0
				d3[k+1] += a3 * w1
				d3[k+2] += a3 * w2
				d3[k+3] += a3 * w3
			}
			for ; k < in; k++ {
				wk := wrow[k]
				d0[k] += a0 * wk
				d1[k] += a1 * wk
				d2[k] += a2 * wk
				d3[k] += a3 * wk
			}
		}
	}
	for ; r < n; r++ {
		dr := dx[r*in : r*in+in]
		gr := g[r*outDim : r*outDim+outDim]
		for o := 0; o < outDim; o++ {
			wrow := w[o*in : o*in+in]
			a := gr[o]
			k := 0
			for ; k+4 <= in; k += 4 {
				dr[k] += a * wrow[k]
				dr[k+1] += a * wrow[k+1]
				dr[k+2] += a * wrow[k+2]
				dr[k+3] += a * wrow[k+3]
			}
			for ; k < in; k++ {
				dr[k] += a * wrow[k]
			}
		}
	}
}

// accumGradGeneric is AccumGrad in Go.  The sample reduction is a
// sequence of rank-1 updates applied in ascending row order — four rows
// are loaded per block but their terms are added one after another into
// each accumulator, so the result is bit-identical to n sequential
// one-row backward passes.
func accumGradGeneric(gradW, gradB, g, x []float64, n, in, outDim int) {
	r := 0
	for ; r+4 <= n; r += 4 {
		x0 := x[r*in : r*in+in]
		x1 := x[(r+1)*in : (r+1)*in+in]
		x2 := x[(r+2)*in : (r+2)*in+in]
		x3 := x[(r+3)*in : (r+3)*in+in]
		g0 := g[r*outDim : r*outDim+outDim]
		g1 := g[(r+1)*outDim : (r+1)*outDim+outDim]
		g2 := g[(r+2)*outDim : (r+2)*outDim+outDim]
		g3 := g[(r+3)*outDim : (r+3)*outDim+outDim]
		for o := 0; o < outDim; o++ {
			a0, a1, a2, a3 := g0[o], g1[o], g2[o], g3[o]
			b := gradB[o]
			b += a0
			b += a1
			b += a2
			b += a3
			gradB[o] = b
			grow := gradW[o*in : o*in+in]
			for k := 0; k < in; k++ {
				s := grow[k]
				s += a0 * x0[k]
				s += a1 * x1[k]
				s += a2 * x2[k]
				s += a3 * x3[k]
				grow[k] = s
			}
		}
	}
	for ; r < n; r++ {
		xr := x[r*in : r*in+in]
		gr := g[r*outDim : r*outDim+outDim]
		for o := 0; o < outDim; o++ {
			a := gr[o]
			gradB[o] += a
			grow := gradW[o*in : o*in+in]
			k := 0
			for ; k+4 <= in; k += 4 {
				grow[k] += a * xr[k]
				grow[k+1] += a * xr[k+1]
				grow[k+2] += a * xr[k+2]
				grow[k+3] += a * xr[k+3]
			}
			for ; k < in; k++ {
				grow[k] += a * xr[k]
			}
		}
	}
}
