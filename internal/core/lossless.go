package core

import (
	"repro/internal/encoder"
	"repro/internal/fixed"
	"repro/internal/huffman"
	"repro/internal/quantizer"
	"repro/internal/safedim"
)

// The lossless escape encoding: a degenerate but fully format-compatible
// block in which every vertex is stored as a literal escape of its exact
// fixed-point value. It involves no prediction, no bound derivation, no
// speculation, and no topology code — only the fixed-point transform and
// the container framing — which makes it the graceful-degradation target
// of the fault-tolerant shm pipeline: if a slab's real encoder keeps
// failing, the slab falls back to this encoding, which trivially
// preserves every critical point (the decoder reproduces the exact
// fixed-point values the detector runs on) at the cost of compression
// ratio. The decoders read the result like any other block.

// losslessBlob builds the escape-only block for nc components of n
// vertices each (raster order). A value outside the transform's range is
// a *fixed.DomainError, as in the lossy kernel.
func losslessBlob(h header, tr fixed.Transform, comps [][]float32) ([]byte, error) {
	n := len(comps[0])
	nc := len(comps)
	expSyms := make([]uint32, n)
	for i := range expSyms {
		expSyms[i] = uint32(quantizer.LosslessSym)
	}
	codeSyms := make([]uint32, safedim.MustProduct(nc, n))
	for i := range codeSyms {
		codeSyms[i] = escapeSym
	}
	// The literal stream interleaves components per vertex, matching the
	// decoder's raster replay.
	literals := make([]byte, 0, safedim.MustProduct(4, nc, n))
	var fx [1]int64
	for v := 0; v < n; v++ {
		for c := 0; c < nc; c++ {
			if err := tr.ToFixedChecked(comps[c][v:v+1], fx[:], c, v); err != nil {
				return nil, err
			}
			literals = appendLiteral(literals, fx[0])
		}
	}
	expStream := huffman.Compress(expSyms)
	codeStream := huffman.Compress(codeSyms)
	h.HasCRC = true
	h.PayloadCRC = h.payloadChecksum(expStream, codeStream, literals)
	return encoder.Pack(h.marshal(), expStream, codeStream, literals)
}

// CompressLossless stores a field of dims [NX, NY] or [NX, NY, NZ]
// exactly (up to the fixed-point rounding all paths share) as an
// escape-only block, decodable like any other. It checks its input like
// NewEncoder.
func CompressLossless(dims []int, comps [][]float32, tr fixed.Transform) ([]byte, error) {
	if _, err := checkShape(dims, comps); err != nil {
		return nil, err
	}
	h := header{NDim: len(dims), NX: dims[0], NY: dims[1], Shift: tr.Shift}
	if h.NDim == 3 {
		h.NZ = dims[2]
	}
	return losslessBlob(h, tr, comps)
}
