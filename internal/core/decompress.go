package core

import (
	"errors"
	"slices"

	"repro/internal/field"
	"repro/internal/fixed"
	"repro/internal/safedim"
)

// The decode adapters over decodeFixed: the whole-field decoders
// (optionally chained to a previous frame) and the dimension-free plane
// streamer the slab pipeline uses.

// Decompress reconstructs a spatially predicted block of either
// dimension and returns its dims ([NX, NY] or [NX, NY, NZ]) and float
// components. Decompression replays the visit order and the stored
// bounds only — no critical point detection or bound derivation runs,
// which is why it is several times faster than compression. A
// whole-domain block of at least 4096 vertices decodes its code stream
// on a second goroutine when GOMAXPROCS ≥ 2; a placed block, and every
// block under GOMAXPROCS 1, decodes on the caller's goroutine alone. The
// output is the same either way, and only it is allocated per call: the
// working buffers are pooled.
func Decompress(blob []byte) ([]int, [][]float32, error) {
	return decompress(blob, 0, nil, nil)
}

// DecompressWithPrev is Decompress for one step of a time series: a
// temporally predicted block decodes against prev, the previous step's
// decoded components of dims prevDims (the exact output of decoding that
// step); a spatial block ignores both.
func DecompressWithPrev(blob []byte, prevDims []int, prev [][]float32) ([]int, [][]float32, error) {
	return decompress(blob, 0, prevDims, prev)
}

// Decompress2D reconstructs a 2D block.
//
// Deprecated: use Decompress.
func Decompress2D(blob []byte) (*field.Field2D, error) {
	dims, c, err := decompress(blob, 2, nil, nil)
	if err != nil {
		return nil, err
	}
	return &field.Field2D{NX: dims[0], NY: dims[1], U: c[0], V: c[1]}, nil
}

// Decompress3D reconstructs a 3D block.
//
// Deprecated: use Decompress.
func Decompress3D(blob []byte) (*field.Field3D, error) {
	dims, c, err := decompress(blob, 3, nil, nil)
	if err != nil {
		return nil, err
	}
	return &field.Field3D{NX: dims[0], NY: dims[1], NZ: dims[2], U: c[0], V: c[1], W: c[2]}, nil
}

// decompress reconstructs an ndim-dimensional block (0 accepts either) and returns its dims
// and float components. A temporally predicted block is decoded against
// prev, the previous decompressed frame of dims prevDims; a spatial block
// ignores both (nil is fine).
func decompress(blob []byte, ndim int, prevDims []int, prev [][]float32) ([]int, [][]float32, error) {
	h, ds, err := decodeFixed(blob, ndim, func(h *header) ([][]float32, error) {
		if len(prev) != h.NDim || !slices.Equal(prevDims, h.dims()) {
			return nil, errors.New("core: temporally predicted block needs the matching previous frame")
		}
		n, _ := h.vertexCount()
		for _, p := range prev {
			if len(p) != n {
				return nil, errors.New("core: previous frame component length mismatch")
			}
		}
		return prev, nil
	})
	if err != nil {
		return nil, nil, err
	}
	defer ds.release()
	tr := fixed.FromShift(h.Shift)
	out := make([][]float32, h.NDim)
	for c := range out {
		out[c] = make([]float32, len(ds.comps[c]))
		tr.ToFloat(ds.comps[c], out[c])
	}
	return h.dims(), out, nil
}

// errTemporalTo reports a temporally predicted block reaching
// DecompressTo, which has no previous frame to chain from.
var errTemporalTo = errors.New("core: temporally predicted block cannot stream-decode without its previous frame")

// DecompressTo decodes a block of either dimension and streams its
// slow-axis planes (rows in 2D, k-slices in 3D) into write in ascending
// order, converting a bounded run of planes at a time into reused
// buffers instead of materializing a float field next to the fixed-point
// state: write(start, comps) receives planes [start, start+k) with
// comps[c] holding k planes, valid only during the call. chunk bounds the
// planes per call (<= 0 picks a default). The fixed-point components are
// still O(block) — the visit order is not plane-sequential — but a block
// is one slab in the streaming pipeline, so peak memory stays O(slab).
// Returns the block's dims.
func DecompressTo(blob []byte, chunk int, write func(start int, comps [][]float32) error) ([]int, error) {
	h, ds, err := decodeFixed(blob, 0, func(*header) ([][]float32, error) { return nil, errTemporalTo })
	if err != nil {
		return nil, err
	}
	defer ds.release()
	comps := ds.comps[:h.NDim]
	dims := h.dims()
	nSlow := dims[len(dims)-1]
	if err := planesTo(comps, fixed.FromShift(h.Shift), len(comps[0])/nSlow, nSlow, chunk, write); err != nil {
		return nil, err
	}
	return dims, nil
}

// planesTo converts fixed-point components to float32 in runs of at
// most chunk planes of planeSize points and delivers each run to write.
func planesTo(comps [][]int64, tr fixed.Transform, planeSize, nPlanes, chunk int,
	write func(start int, comps [][]float32) error) error {

	if chunk <= 0 {
		chunk = 16
	}
	if chunk > nPlanes {
		chunk = nPlanes
	}
	out := make([][]float32, len(comps))
	for c := range out {
		out[c] = make([]float32, safedim.MustProduct(chunk, planeSize))
	}
	for start := 0; start < nPlanes; start += chunk {
		count := chunk
		if start+count > nPlanes {
			count = nPlanes - start
		}
		run := make([][]float32, len(comps))
		for c := range comps {
			run[c] = out[c][:count*planeSize]
			tr.ToFloat(comps[c][start*planeSize:(start+count)*planeSize], run[c])
		}
		if err := write(start, run); err != nil {
			return err
		}
	}
	return nil
}
