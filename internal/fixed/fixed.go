// Package fixed converts floating-point vector fields to the fixed-point
// integer representation consumed by the compression pipeline.
//
// Algorithm 2 of the paper takes an "input fixed-point vector field" and a
// "fixed-point error bound τ′ transformed from the user-specified error
// bound τ". Working on integers makes every determinant predicate exact
// (see package exact) and makes compression/decompression bit-reproducible
// across platforms.
//
// The scale is a power of two chosen so that every fixed-point magnitude is
// at most MaxMagnitude = 2^20. Under that contract all 3×3 orientation
// determinants fit in int64 and all 4×4 determinants fit in Int128, and the
// reconstruction fixed/scale is exactly representable in float32.
package fixed

import (
	"errors"
	"fmt"
	"math"
)

// MaxMagnitude bounds |fixed-point value|; it is the contract that makes
// the predicates in package exact overflow-free.
const MaxMagnitude = 1 << 20

// MaxBound is the ceiling at which Bound saturates. It keeps every bound
// the compressor derives from τ′ inside int64: the top of the relaxation
// grid τ′·2^20 (quantizer.MaxBoundUp) is at most 2^60 and the quantizer's
// bin width 2ξ+1 at most 2^61+1. The ceiling never tightens a usable
// bound: two fixed-point values differ by at most 2·MaxMagnitude = 2^21
// units, far below it.
const MaxBound = 1 << 40

// Transform holds the float↔fixed mapping for one dataset. All components
// of a vector field share a single transform so that the user's absolute
// error bound τ means the same thing for every component.
type Transform struct {
	// Scale is the power-of-two multiplier: fixed = round(value * Scale).
	Scale float64
	// Shift is log2(Scale); kept for headers/serialization.
	Shift int
}

// ErrEmpty is returned by Fit when no values are provided.
var ErrEmpty = errors.New("fixed: no data to fit")

// DomainError reports an input value the pipeline cannot represent: a
// NaN or an infinity, or (from ToFixedChecked) a finite value whose
// fixed-point image under the caller's transform exceeds MaxMagnitude,
// or a finite parameter outside its domain (a non-positive error bound,
// a grid extent below two points).
// For a field element, Component and Index locate the first offending
// value (component index, then element index within it); for a parameter
// such as the error bound, Param names it and Component and Index are
// unused.
type DomainError struct {
	Param     string
	Component int
	Index     int
	Value     float64
}

func (e *DomainError) Error() string {
	if e.Param != "" {
		if math.IsNaN(e.Value) || math.IsInf(e.Value, 0) {
			return fmt.Sprintf("fixed: non-finite %s %v", e.Param, e.Value)
		}
		return fmt.Sprintf("fixed: %s %v out of domain", e.Param, e.Value)
	}
	if !math.IsNaN(e.Value) && !math.IsInf(e.Value, 0) {
		return fmt.Sprintf("fixed: value %v at component %d, index %d exceeds the fixed-point range (magnitude %d) of the transform",
			e.Value, e.Component, e.Index, MaxMagnitude)
	}
	return fmt.Sprintf("fixed: non-finite value %v at component %d, index %d", e.Value, e.Component, e.Index)
}

// CheckParam returns a *DomainError naming the parameter when v is NaN
// or infinite, and nil otherwise.
func CheckParam(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return &DomainError{Param: name, Value: v}
	}
	return nil
}

// Fit chooses the largest power-of-two scale such that the fixed-point
// magnitude of every value stays within MaxMagnitude/2 (the halving leaves
// headroom for the error bound relaxation, which may push a perturbed value
// up to τ′ beyond its original magnitude). A NaN or infinite value is
// rejected with a *DomainError.
func Fit(components ...[]float32) (Transform, error) {
	maxAbs := 0.0
	n := 0
	for ci, c := range components {
		n += len(c)
		for i, v := range c {
			a := math.Abs(float64(v))
			if !(a <= math.MaxFloat32) {
				return Transform{}, &DomainError{Component: ci, Index: i, Value: float64(v)}
			}
			if a > maxAbs {
				maxAbs = a
			}
		}
	}
	if n == 0 {
		return Transform{}, ErrEmpty
	}
	return FromMaxAbs(maxAbs), nil
}

// FromMaxAbs builds the transform for data whose absolute values do not
// exceed maxAbs. Streaming callers take maxAbs from one pass over the
// data (field.SourceStats) and call this, yielding Fit's transform
// without holding the field.
func FromMaxAbs(maxAbs float64) Transform {
	if maxAbs <= 0 || math.IsNaN(maxAbs) || math.IsInf(maxAbs, 0) {
		return Transform{Scale: 1, Shift: 0}
	}
	// Largest k with maxAbs * 2^k <= MaxMagnitude/2.
	k := int(math.Floor(math.Log2(float64(MaxMagnitude/2) / maxAbs)))
	// Guard against pathological tiny fields blowing up the scale: beyond
	// 2^40 additional precision is meaningless for float32 inputs.
	if k > 40 {
		k = 40
	}
	return Transform{Scale: math.Ldexp(1, k), Shift: k}
}

// FromShift rebuilds a Transform from its serialized Shift.
func FromShift(shift int) Transform {
	return Transform{Scale: math.Ldexp(1, shift), Shift: shift}
}

// ToFixed converts src to fixed point into dst (which must have the same
// length), rounding to nearest.
//
// The length check panics rather than returning an error: both slices
// are always allocated by the caller from the same dimensions, so a
// mismatch is a programming error, never a property of external input —
// decode paths validate stream-derived lengths before calling this.
func (t Transform) ToFixed(src []float32, dst []int64) {
	if len(src) != len(dst) {
		// invariant: caller allocates both slices from the same
		// validated dimensions; a mismatch is a programming error.
		panic("fixed: length mismatch")
	}
	for i, v := range src {
		dst[i] = int64(math.RoundToEven(float64(v) * t.Scale))
	}
}

// ToFixedChecked is ToFixed for a transform the caller chose, which may
// not fit the data: it stops at the first value that is non-finite or
// whose fixed-point magnitude exceeds MaxMagnitude (the contract that
// keeps the exact predicates overflow-free) and returns a *DomainError
// for it, with Component comp and Index base+i. Values before it are
// converted.
func (t Transform) ToFixedChecked(src []float32, dst []int64, comp, base int) error {
	if len(src) != len(dst) {
		// invariant: as in ToFixed.
		panic("fixed: length mismatch")
	}
	for i, v := range src {
		f := math.RoundToEven(float64(v) * t.Scale)
		if !(math.Abs(f) <= MaxMagnitude) {
			return &DomainError{Component: comp, Index: base + i, Value: float64(v)}
		}
		dst[i] = int64(f)
	}
	return nil
}

// ToFloat converts fixed-point values back to float32 into dst.
// Because the scale is a power of two and magnitudes are below 2^24, the
// conversion is exact. Like ToFixed, the length check guards a caller
// invariant and panics on violation.
func (t Transform) ToFloat(src []int64, dst []float32) {
	if len(src) != len(dst) {
		// invariant: caller allocates both slices from the same
		// validated dimensions; a mismatch is a programming error.
		panic("fixed: length mismatch")
	}
	inv := 1 / t.Scale
	for i, v := range src {
		dst[i] = float32(float64(v) * inv)
	}
}

// Resolution returns the representable error floor of the transform: the
// float→fixed rounding alone introduces errors up to half this value, so
// absolute error bounds below Resolution() cannot be honored even by
// lossless fixed-point storage.
func (t Transform) Resolution() float64 {
	return 1 / t.Scale
}

// Bound converts the user-specified absolute error bound τ (in original
// float units) to a fixed-point bound τ′. One unit is subtracted so the
// total error — quantization error of at most τ′ units plus the half-unit
// float→fixed rounding — never exceeds τ in the original units. The
// result saturates at MaxBound (τ·Scale beyond int64, +Inf included,
// would otherwise wrap) and is 0 for a bound below one unit or a NaN.
func (t Transform) Bound(tau float64) int64 {
	b := math.Floor(tau*t.Scale) - 1
	switch {
	case !(b > 0):
		return 0
	case b >= MaxBound:
		return MaxBound
	}
	return int64(b)
}
