// Package quantizer implements the linear-scaling quantizer with
// per-vertex error bounds and the power-of-two bound quantization of the
// coupled compression scheme.
//
// A value v with prediction p and (integer, fixed-point) error bound ξ is
// coded as q = ⌊(v − p + ξ) / (2ξ+1)⌋; the reconstruction p + q·(2ξ+1)
// differs from v by at most ξ. Derived bounds are snapped to τ′/2^k so
// only the small exponent k has to be stored for the decompressor — which
// therefore never needs to re-derive bounds (this is what makes
// decompression topology-free and fast).
package quantizer

import "math/bits"

// Radius bounds the magnitude of quantization codes; larger residuals are
// escaped to the literal stream.
const Radius = 1 << 15

// The bound grid is {τ′·2^e : −MaxBoundDown ≤ e ≤ MaxBoundUp}. Exponents
// below zero (bounds tighter than τ′) arise from the derivation; exponents
// above zero arise from the sign-uniformity relaxation and from
// speculative compression, both of which deliberately exceed the user
// bound for data that provably carries no topology.
const (
	MaxBoundDown = 40 // bounds down to τ′/2^40
	MaxBoundUp   = 20 // bounds up to τ′·2^20
)

// LosslessSym is the bound-symbol sentinel meaning "error bound zero"
// (the vertex must be reconstructed exactly).
const LosslessSym uint8 = 0xFF

// BoundSym snaps a derived bound xi to the largest grid bound ≤ xi and
// returns its symbol. xi ≤ 0, or xi below the smallest grid bound, yields
// the lossless sentinel. The grid exponent comes from the bit lengths of
// xi and tau, so the cost does not depend on where xi falls; tau is at
// most fixed.MaxBound (2^40), so tau·2^MaxBoundUp cannot overflow.
func BoundSym(xi, tau int64) (sym uint8, snapped int64) {
	if xi <= 0 || tau <= 0 {
		return LosslessSym, 0
	}
	var e int
	if xi >= tau {
		// The largest m with tau<<m ≤ xi, capped at the top of the grid;
		// tau<<m has xi's bit length at most, so it cannot overflow.
		m := bits.Len64(uint64(xi)) - bits.Len64(uint64(tau))
		if tau<<m > xi {
			m--
		}
		e = -min(m, MaxBoundUp)
	} else {
		// The smallest e ≥ 1 with tau>>e ≤ xi; tau>>e stays positive.
		e = bits.Len64(uint64(tau)) - bits.Len64(uint64(xi))
		if tau>>e > xi {
			e++
		}
		if e > MaxBoundDown {
			return LosslessSym, 0
		}
	}
	return uint8(e + MaxBoundUp), boundAt(e, tau)
}

// BoundFromSym reconstructs the snapped bound from its symbol.
func BoundFromSym(sym uint8, tau int64) int64 {
	if sym == LosslessSym || int(sym) > MaxBoundUp+MaxBoundDown {
		return 0
	}
	return boundAt(int(sym)-MaxBoundUp, tau)
}

// boundAt returns τ′·2^(−e): right shifts for e ≥ 0, left shifts for the
// relaxation range.
func boundAt(e int, tau int64) int64 {
	if e >= 0 {
		return tau >> uint(e)
	}
	return tau << uint(-e)
}

// Quantize codes value against pred with bound xi (>= 0). It returns the
// quantization code, the reconstructed value, and whether the code is
// representable (|code| < Radius). When ok is false the caller must escape
// to the literal stream.
func Quantize(value, pred, xi int64) (code, recon int64, ok bool) {
	bin := 2*xi + 1
	diff := value - pred
	code = floorDiv(diff+xi, bin)
	if code <= -Radius || code >= Radius {
		return 0, value, false
	}
	recon = pred + code*bin
	if recon-value > xi || value-recon > xi {
		// Defensive: cannot happen with exact integer arithmetic.
		return 0, value, false
	}
	return code, recon, true
}

// Reconstruct recomputes the value from a quantization code (the
// decompressor side of Quantize).
func Reconstruct(code, pred, xi int64) int64 {
	return pred + code*(2*xi+1)
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}
