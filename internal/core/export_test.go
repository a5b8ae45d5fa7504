package core

// SetSliceHook installs fn as the wavefront's slice hook, which runs as
// a worker takes a slice, and returns the function that removes it.
func SetSliceHook(fn func(worker, slice int)) (restore func()) {
	sliceHook = fn
	return func() { sliceHook = nil }
}
