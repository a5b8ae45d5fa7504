// Package exactstub stands in for internal/exact in the self-test of
// floatflow's filter rules: the exact determinant type and the fallback
// predicates.
package exactstub

// Int128 is the stand-in exact determinant type.
type Int128 struct {
	Hi int64
	Lo uint64
}

// Sign returns the sign of the exact determinant.
func (a Int128) Sign() int {
	switch {
	case a.Hi < 0:
		return -1
	case a.Hi == 0 && a.Lo == 0:
		return 0
	}
	return 1
}

// Det is a stand-in exact determinant evaluation.
func Det(m *[2][2]int64) Int128 {
	return Int128{Hi: 0, Lo: uint64(m[0][0]*m[1][1] - m[0][1]*m[1][0])}
}
