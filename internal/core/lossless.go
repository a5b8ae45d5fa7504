package core

import (
	"repro/internal/predictor"
	"repro/internal/quantizer"
	"repro/internal/safedim"
)

// The lossless encoding: a degenerate but fully format-compatible block
// in which every vertex has bound 0 and stores the exact Lorenzo
// residual of its fixed-point value. It involves no bound derivation, no
// speculation, and no topology code — only the fixed-point transform,
// the predictor and the container framing — which makes it the
// graceful-degradation target of the fault-tolerant shm pipeline: if a
// slab's real encoder keeps failing, the slab falls back to this
// encoding, which trivially preserves every critical point (the decoder
// reproduces the exact fixed-point values the detector runs on) at the
// cost of compression ratio. The decoders read the result like any other
// block.

// CompressLossless stores the field of b.Dims and b.Comps exactly (up to
// the fixed-point rounding all paths share) under b.Transform, as a block
// whose every vertex has bound 0 and predicts with the full stencil,
// decodable like any other; b.Slab sets the header's slab flag, and the
// other fields of b are not read. It checks its input like NewEncoder; a
// value outside the transform's range is a *fixed.DomainError, as in the
// lossy kernel.
func CompressLossless(b Block) ([]byte, error) {
	dims, comps, tr := b.Dims, b.Comps, b.Transform
	if _, err := checkShape(dims, comps); err != nil {
		return nil, err
	}
	h := header{Version: version4, NDim: len(dims), NX: dims[0], NY: dims[1], Shift: tr.Shift, Slab: b.Slab}
	nz := 1
	if h.NDim == 3 {
		h.NZ, nz = dims[2], dims[2]
	}
	n, nc := len(comps[0]), len(comps)
	// Convert vertex by vertex, so the first bad value reported is the
	// first in raster order.
	fx := make([][]int64, nc)
	for c := range fx {
		fx[c] = make([]int64, n)
	}
	for v := 0; v < n; v++ {
		for c := 0; c < nc; c++ {
			if err := tr.ToFixedChecked(comps[c][v:v+1], fx[c][v:v+1], c, v); err != nil {
				return nil, err
			}
		}
	}
	expSyms := make([]uint32, n)
	for i := range expSyms {
		expSyms[i] = uint32(quantizer.LosslessSym)
	}
	// The residual stream interleaves components per vertex, matching
	// the decoder's raster replay.
	res := make([]byte, 0, safedim.MustProduct(2, nc, n))
	v := 0
	for k := 0; k < nz; k++ {
		for j := 0; j < h.NY; j++ {
			for i := 0; i < h.NX; i, v = i+1, v+1 {
				for c := 0; c < nc; c++ {
					res = appendResidual(res, fx[c][v]-predictor.Lorenzo(fx[c], h.NX, h.NY, i, j, k, 0))
				}
			}
		}
	}
	return writeBlock(&h, false, expSyms, nil, nil, [][]byte{res})
}
