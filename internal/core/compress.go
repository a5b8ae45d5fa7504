package core

import (
	"repro/internal/field"
	"repro/internal/fixed"
)

// CompressField2D compresses a single-node 2D field with the given
// transform.
//
// Deprecated: use CompressBlock(Block{Dims: f.Dims(), Comps:
// f.Components(), Transform: tr, Opts: opts}), or Compress when the
// transform is the field's own fit.
func CompressField2D(f *field.Field2D, tr fixed.Transform, opts Options) ([]byte, error) {
	blob, _, err := CompressBlock(Block{Dims: f.Dims(), Comps: f.Components(), Transform: tr, Opts: opts})
	return blob, err
}

// CompressField3D compresses a single-node 3D field with the given
// transform.
//
// Deprecated: use CompressBlock, as for CompressField2D.
func CompressField3D(f *field.Field3D, tr fixed.Transform, opts Options) ([]byte, error) {
	blob, _, err := CompressBlock(Block{Dims: f.Dims(), Comps: f.Components(), Transform: tr, Opts: opts})
	return blob, err
}

// Compress compresses a single-node field of dims [NX, NY] or
// [NX, NY, NZ] (one component per dimension) as one block, with a
// transform fitted to the field itself, and returns that transform. It
// is the inverse of Decompress.
func Compress(dims []int, comps [][]float32, opts Options) ([]byte, fixed.Transform, error) {
	tr, err := fixed.Fit(comps...)
	if err != nil {
		return nil, tr, err
	}
	blob, _, err := CompressBlock(Block{Dims: dims, Comps: comps, Transform: tr, Opts: opts})
	return blob, tr, err
}
