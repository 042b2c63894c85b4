//go:build !amd64 || race

package blas

// forEachDispatch runs fn on the one kernel path this build has: the Go
// kernels.
func forEachDispatch(fn func()) { fn() }
