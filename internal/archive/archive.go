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

// ErrDimsChanged reports a series frame, appended or decoded, whose grid
// dimensions differ from the frames before it.
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

// DecodeSeries decodes every step of a time series in order, chaining
// temporally predicted frames through their predecessors (purely spatial
// series decode too), and returns the shared dims and each step's
// components. It reads only time series: a step whose header places it
// in a decomposed field — a slab of an shm container — is ErrCorrupt,
// and a step whose dims differ from step 0's is ErrDimsChanged, as in
// Series.Append.
func DecodeSeries(sr *StreamReader) ([]int, [][][]float32, error) {
	steps := make([][][]float32, sr.Steps())
	var dims []int
	var buf []byte
	var prev [][]float32
	for i := range steps {
		blob, err := sr.ReadBlobInto(buf, i)
		if err != nil {
			return nil, nil, err
		}
		buf = blob
		h, err := core.PeekBlock(blob)
		switch {
		case err != nil:
			return nil, nil, fmt.Errorf("archive: step %d: %w", i, err)
		case h.Placed:
			return nil, nil, fmt.Errorf("archive: step %d is a block of a decomposed field, not a time step: %w", i, ErrCorrupt)
		case i > 0 && !slices.Equal(h.Dims, dims):
			return nil, nil, fmt.Errorf("archive: step %d has dims %v, step 0 %v: %w", i, h.Dims, dims, ErrDimsChanged)
		}
		if dims, prev, err = core.DecompressWithPrev(blob, dims, prev); err != nil {
			return nil, nil, fmt.Errorf("archive: step %d: %w", i, err)
		}
		steps[i] = prev
	}
	return dims, steps, nil
}
