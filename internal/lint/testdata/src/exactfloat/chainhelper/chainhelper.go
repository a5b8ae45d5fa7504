// Package chainhelper is called from the float-free self-test's exact
// package; its float use is a call-chain violation even though the
// package itself is not an exact package.
package chainhelper

// Scale sneaks floating point into an exact predicate's call chain.
func Scale(v int64) int64 {
	f := float64(v) * 1.0000001 // want "float operation .* in call chain of exact predicate"
	return int64(f)
}

// Unrelated is never called from the exact package, so its float use
// is not a finding.
func Unrelated(v float64) float64 {
	return v * 2
}
