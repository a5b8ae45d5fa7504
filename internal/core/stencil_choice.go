package core

import "math/bits"

// The per-block choice of the Lorenzo stencil (block format 4). The full
// stencil of order d sums 2^d − 1 reconstructed neighbours, and each
// carries up to its own bound in error, so where the bound is large
// against the field's local variation the prediction noise grows with
// the order. The reduced stencil drops the slow axis's terms: the row
// predictor in 2D, the in-plane 2D Lorenzo in 3D (vertexOrder's
// reduced). The encoder estimates what each would cost, as SZ2 chooses
// its predictor from the data and the bound (Liang et al., IEEE BigData
// 2018), and the header records the choice.

// selectStride is the selector's sampling: it reads every selectStride-th
// own row (rows counted across planes), starting at the last row of the
// first stride.
const selectStride = 8

// maxSelectBound caps the bound ξ in the cost estimate. Two fixed-point
// values differ by at most 2·fixed.MaxMagnitude = 2^21 units, so a larger
// ξ predicts nothing new, and under the cap every sum below fits int64.
const maxSelectBound = 1 << 22

// reducedCodesSmaller reports whether the reduced stencil is estimated to
// code the block smaller than the full one. On the sampled rows off the
// first slice, per component, each stencil of order d costs the sum over
// the vertices of
// ilog2(r_d² + (2^d − 1)·ξ²/3 + 4ξ²), where r_d is the order-d residual
// on the original fixed-point values and ξ the bound speculation starts
// from: τ′ for NoSpec and ST1, τ′·2^n_l for ST2–ST4. The reduced stencil
// wins only on a strictly smaller sum. A temporal block predicts from
// the previous frame and keeps the full stencil's bit (0). The estimate
// reads only the block's own values, in integers, so the choice does not
// depend on the host, the core count or the ghost layers.
func (k *kernel) reducedCodesSmaller() bool {
	if k.temporal {
		return false
	}
	blk := &k.blk
	xi := k.tau
	if k.spec >= ST2 {
		xi <<= k.spec.retries()
	}
	xi = min(xi, maxSelectBound)
	xx := xi * xi
	d := uint(blk.ndim)
	noiseFull := (1<<d-1)*xx/3 + 4*xx
	noiseReduced := (1<<(d-1)-1)*xx/3 + 4*xx
	var full, reduced int64
	cur, low := make([]int64, blk.nx), make([]int64, blk.nx)
	for r := selectStride - 1; r < blk.ny*blk.nz; r += selectStride {
		oj, ok := r%blk.ny, r/blk.ny
		// The same row one slow-axis slice down: in the plane below in
		// 3D, the row below in 2D. On the first slice the two stencils
		// are one, so its rows cost both the same and are skipped.
		lj, lk, lower := oj, ok-1, ok > 0
		if blk.ndim == 2 {
			lj, lk, lower = oj-1, 0, oj > 0
		}
		if !lower {
			continue
		}
		for c := 0; c < blk.nc; c++ {
			k.sliceResiduals(cur, c, oj, ok)
			k.sliceResiduals(low, c, lj, lk)
			for i, rr := range cur {
				rf := rr - low[i]
				reduced += ilog2(rr*rr + noiseReduced)
				full += ilog2(rf*rf + noiseFull)
			}
		}
	}
	return reduced < full
}

// sliceResiduals writes to dst the reduced stencil's residuals of
// component c along own row (oj, ok), on the values in comps: each
// vertex less its x-neighbour in 2D, less its in-plane 2D Lorenzo
// prediction in 3D, with the terms off the block dropped as
// predictor.Lorenzo drops them. The full stencil's residual is a
// vertex's less the same vertex's one slice down (inclusion–exclusion
// over the slow axis).
func (k *kernel) sliceResiduals(dst []int64, c, oj, ok int) {
	x, v := k.comps[c], k.extIdx(0, oj, ok)
	row := x[v : v+len(dst)]
	if k.blk.ndim == 3 && oj > 0 {
		up := x[v-k.ext[0] : v-k.ext[0]+len(dst)]
		dst[0] = row[0] - up[0]
		for i := 1; i < len(dst); i++ {
			dst[i] = row[i] - row[i-1] - up[i] + up[i-1]
		}
		return
	}
	dst[0] = row[0]
	for i := 1; i < len(dst); i++ {
		dst[i] = row[i] - row[i-1]
	}
}

// ilog2 is log2(x) in fixed point with 8 fraction bits, for x ≥ 1: the
// bit length less one, then the 8 bits below the leading one, which
// interpolate the logarithm linearly between powers of two. It is 0 for
// x < 1.
func ilog2(x int64) int64 {
	if x < 1 {
		return 0
	}
	n := bits.Len64(uint64(x))
	frac := uint64(x) << (64 - n) >> 55 & 0xff
	return int64(n-1)<<8 | int64(frac)
}
