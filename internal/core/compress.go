package core

import (
	"repro/internal/field"
	"repro/internal/fixed"
)

// Compress2D compresses a 2D vector field with a transform fitted to the
// field itself. For distributed runs or when the transform must be shared
// (e.g. with ground-truth detection), use CompressField2D.
func Compress2D(f *field.Field2D, opts Options) ([]byte, fixed.Transform, error) {
	return Compress([]int{f.NX, f.NY}, f.Components(), opts)
}

// CompressField2D compresses a single-node 2D field with the given
// transform.
func CompressField2D(f *field.Field2D, tr fixed.Transform, opts Options) ([]byte, error) {
	blob, _, err := CompressBlock(Block{Dims: []int{f.NX, f.NY}, Comps: f.Components(), Transform: tr, Opts: opts})
	return blob, err
}

// Compress3D compresses a 3D vector field with a fitted transform.
func Compress3D(f *field.Field3D, opts Options) ([]byte, fixed.Transform, error) {
	return Compress([]int{f.NX, f.NY, f.NZ}, f.Components(), opts)
}

// CompressField3D compresses a single-node 3D field with the given
// transform.
func CompressField3D(f *field.Field3D, tr fixed.Transform, opts Options) ([]byte, error) {
	blob, _, err := CompressBlock(Block{Dims: []int{f.NX, f.NY, f.NZ}, Comps: f.Components(), Transform: tr, Opts: opts})
	return blob, err
}

// Compress compresses a single-node field of dims [NX, NY] or
// [NX, NY, NZ] (one component per dimension) as one block, with a
// transform fitted to the field itself: the dimension-free form of
// Compress2D/3D, and the inverse of Decompress.
func Compress(dims []int, comps [][]float32, opts Options) ([]byte, fixed.Transform, error) {
	tr, err := fixed.Fit(comps...)
	if err != nil {
		return nil, tr, err
	}
	blob, _, err := CompressBlock(Block{Dims: dims, Comps: comps, Transform: tr, Opts: opts})
	return blob, tr, err
}
