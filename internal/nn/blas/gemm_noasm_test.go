//go:build !amd64 || race

package blas

import "testing"

// forEachDispatch runs fn as a subtest on the one kernel path this build
// has: the Go kernels.
func forEachDispatch(t *testing.T, fn func(t *testing.T)) { t.Run(Impl(), fn) }
