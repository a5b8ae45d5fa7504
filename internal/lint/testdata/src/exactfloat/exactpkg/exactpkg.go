// Package exactpkg is the self-test of floatflow's float-free rule: it
// stands in for internal/exact, where no floating point may appear.
package exactpkg

import "chainhelper"

// Det2 is a stand-in exact predicate; its call chain must be
// float-free.
func Det2(a, b, c, d int64) int64 {
	return a*d - b*c // integer arithmetic: clean
}

func badLiteral() int64 {
	scale := 1.5 // want "float literal"
	_ = scale
	return 0
}

func badConversion(v int64) int64 {
	f := float64(v) // want "conversion to float type"
	_ = f
	return v
}

func badParam(x float64) int64 { // want "float-typed declaration"
	_ = x
	return 0
}

var badVar float32 // want "float-typed declaration of badVar"

func badCompare(a, b int64) bool {
	return float64(a) < float64(b) // want "float operation"
}

// SignVia feeds the sign predicate through a helper in another
// package; the helper's float use is a chain violation (reported in
// chainhelper).
func SignVia(a, b int64) int {
	if chainhelper.Scale(a) > chainhelper.Scale(b) {
		return 1
	}
	return -1
}

// cleanHelper is integer-only and fine.
func cleanHelper(a, b int64) int64 {
	if a > b {
		return a - b
	}
	return b - a
}
