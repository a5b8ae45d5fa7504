// Package filterstub stands in for internal/exact/filter in the
// self-test of floatflow's filter rules: certified stages, ok-guards,
// and the exact fallback contract.
package filterstub

import "exactstub"

// stage is a certified filter stage: (sign, certified).
func stage(x int64) (int, bool) {
	if x > 4 || x < -4 {
		if x > 0 {
			return 1, true
		}
		return -1, true
	}
	return 0, false
}

// GoodSign consumes the stage through the ok-guard and falls back to
// the exact path: clean.
func GoodSign(m *[2][2]int64, x int64) int {
	if s, ok := stage(x); ok {
		return s
	}
	return exactstub.Det(m).Sign()
}

// BadLeakSign reads the stage's sign while discarding the certification
// bit: the sign may be garbage when ok would have been false.
func BadLeakSign(m *[2][2]int64, x int64) int {
	s, _ := stage(x) // want "certified stage stage used outside its ok-guard"
	if s != 0 {
		return s
	}
	return exactstub.Det(m).Sign()
}

// BadNoFallbackSign guards correctly but has no exact fallback: an
// inconclusive filter simply guesses.
func BadNoFallbackSign(x int64) int { // want "exported sign predicate BadNoFallbackSign never reaches an exact fallback"
	if s, ok := stage(x); ok {
		return s
	}
	return -1
}
