//go:build !amd64 || race

package blas

func implName() string { return "generic" }

func gemmBias(preact, x, w, bias []float64, n, in, outDim int) {
	gemmBiasGeneric(preact, x, w, bias, n, in, outDim)
}

func gemmNN(dx, g, w []float64, n, in, outDim int) {
	gemmNNGeneric(dx, g, w, n, in, outDim)
}

func accumGrad(gradW, gradB, g, x []float64, n, in, outDim int) {
	accumGradGeneric(gradW, gradB, g, x, n, in, outDim)
}
