// Package archive is the container layer: a sequence of self-describing
// core blocks (one per time step of a series, or one per slab of the
// shared-memory pipeline) plus a checksummed index, so individual steps
// can be read without loading the whole file. This is the on-disk layout
// scientific workflows use for the write-once/read-many pattern the
// paper's I/O study targets, and the input format of the critical point
// tracking example.
//
// StreamWriter writes the version-3 layout (see stream.go); OpenStream is
// the one reader, and the only code that decides which bytes are a
// container. It reads version 3, the older version-1/2 layouts
// (decode-only; index up front, little endian):
//
//	magic "SCAR" | version u8 | step count uvarint
//	per step: blob length uvarint
//	version 2: per step CRC32C u32, then head CRC32C u32 over all
//	preceding bytes
//	concatenated blobs
//
// and a bare core block (any input not starting with "SCAR"), which it
// presents as a one-step container without a container CRC — core
// blocks carry their own.
//
// Blobs are core blocks (core.Encoder output), so the container itself
// needs no field metadata.
package archive

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/fixed"
)

var magic = [4]byte{'S', 'C', 'A', 'R'}

const (
	versionBare = 0 // a bare core block, no container framing
	version1    = 1 // seed layout, no checksums
	version2    = 2 // adds per-blob and head CRC32C
)

// ErrCorrupt reports a malformed archive.
var ErrCorrupt = errors.New("archive: corrupt")

// ErrDimsChanged reports an appended frame whose grid dimensions differ
// from the frames already in the series.
var ErrDimsChanged = errors.New("archive: frame dimensions changed mid-series")

// ErrStepRange reports a step index outside the archive.
var ErrStepRange = errors.New("archive: step out of range")

// Series appends temporally predicted frames to a StreamWriter: each
// frame is compressed against the previous frame's decompressed output
// (spatial prediction for the first frame), which on slowly evolving
// series beats spatial prediction considerably. The fixed-point
// transform is fitted on the first frame and shared by the series, so
// later frames must stay within its magnitude range.
type Series struct {
	sw    *StreamWriter
	tr    fixed.Transform
	trSet bool
	// dims and prev hold the previous frame's shape and decompressed
	// output (the predictor both sides agree on).
	dims []int
	prev [][]float32
}

// NewSeries returns a Series appending to sw. The caller closes sw.
func NewSeries(sw *StreamWriter) *Series { return &Series{sw: sw} }

// Append compresses and appends one frame of dims [NX, NY] or
// [NX, NY, NZ] with one component per dimension.
func (s *Series) Append(dims []int, comps [][]float32, opts core.Options) error {
	if !s.trSet {
		tr, err := fixed.Fit(comps...)
		if err != nil {
			return err
		}
		s.tr, s.trSet = tr, true
	}
	blk := core.Block{Dims: dims, Comps: comps, Transform: s.tr, Opts: opts}
	if s.prev != nil {
		if !slices.Equal(s.dims, dims) {
			return ErrDimsChanged
		}
		blk.Prev = s.prev
	}
	enc, err := core.NewEncoder(blk)
	if err != nil {
		return err
	}
	defer enc.Close()
	enc.Run()
	blob, err := enc.Finish()
	if err != nil {
		return err
	}
	s.dims, s.prev = slices.Clone(dims), enc.Decompressed()
	_, err = s.sw.AppendBlob(blob)
	return err
}

// DecodeSeries2D decodes every step of sr in order, chaining temporally
// predicted frames through their predecessors. Works for purely spatial
// series too.
func DecodeSeries2D(sr *StreamReader) ([]*field.Field2D, error) {
	return decodeSeries(sr, core.Decompress2DWithPrev)
}

// DecodeSeries3D is the 3D variant of DecodeSeries2D.
func DecodeSeries3D(sr *StreamReader) ([]*field.Field3D, error) {
	return decodeSeries(sr, core.Decompress3DWithPrev)
}

// decodeSeries decodes each step against the previous decoded frame (the
// zero F, nil, before the first).
func decodeSeries[F any](sr *StreamReader, decode func(blob []byte, prev F) (F, error)) ([]F, error) {
	out := make([]F, sr.Steps())
	var buf []byte
	var prev F
	for i := range out {
		blob, err := sr.ReadBlobInto(buf, i)
		if err != nil {
			return nil, err
		}
		buf = blob
		if prev, err = decode(blob, prev); err != nil {
			return nil, fmt.Errorf("archive: step %d: %w", i, err)
		}
		out[i] = prev
	}
	return out, nil
}
