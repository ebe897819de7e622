package core

// forceScalar disables the vector dispatch for the duration of fn.
// Package tests run sequentially, so flipping the cached feature flag is
// race-free.
func forceScalar(fn func()) {
	saved := hasAVX2FMA
	hasAVX2FMA = false
	defer func() { hasAVX2FMA = saved }()
	fn()
}
