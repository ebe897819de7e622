//go:build !amd64

package core

// forceScalar runs fn: without the vector kernels every path is scalar.
func forceScalar(fn func()) { fn() }
