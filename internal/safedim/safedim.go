// Package safedim provides overflow-checked products of dimension and
// length values. It is the blessed allocation-sizing helper enforced by
// the overflowmul analyzer (cmd/topolint): a slice must never be sized
// by a raw nx*ny*nz product, because a corrupt or adversarial header
// whose per-dimension values pass individual bounds checks can still
// overflow the product into a small (or negative) length that later
// slicing trusts.
//
// Two entry points cover the two trust levels in the tree:
//
//   - Product, for values derived from untrusted input that has not yet
//     been range-validated: the caller handles the failure as a data
//     error.
//   - MustProduct, for dimensions the caller has already validated
//     (encode paths, constructors whose contract requires sane sizes,
//     decode paths downstream of a successful header validation): an
//     overflow there is a programmer error, reported by panic.
//
// Field applies Product to a caller-supplied field and checks its
// components against the result, for the dimension-free compressors.
package safedim

import (
	"fmt"
	"math"
	"slices"
)

// Product returns the product of dims, reporting ok=false when any
// dimension is negative or the product overflows int. A zero dimension
// yields (0, true). Product of no dimensions is (1, true).
func Product(dims ...int) (n int, ok bool) {
	p := uint64(1)
	for _, d := range dims {
		if d < 0 {
			return 0, false
		}
		if d != 0 && p > math.MaxInt/uint64(d) {
			return 0, false
		}
		p *= uint64(d)
	}
	return int(p), true
}

// MustProduct is Product for already-validated dimensions: encode paths
// and allocation sites downstream of a successful header validation
// (core's vertexCount, the guarded varint reads). Reaching the panic
// means a caller skipped validation — a programmer error, not a data
// error.
func MustProduct(dims ...int) int {
	n, ok := Product(dims...)
	if !ok {
		// invariant: callers pass pre-validated dimensions; overflow here
		// is a missed validation upstream, never a property of the data.
		panic("safedim: dimension product overflows int")
	}
	return n
}

// Field validates the shape of a field handed to a dimension-free
// compressor: dims is [NX, NY] or [NX, NY, NZ] with every extent at
// least 1, comps holds ncomp components, and each holds one value per
// grid point. It returns the point count. Errors carry no package
// prefix; callers add their own.
func Field(dims []int, comps [][]float32, ncomp int) (int, error) {
	if len(dims) != 2 && len(dims) != 3 {
		return 0, fmt.Errorf("a field has 2 or 3 dims, got %d", len(dims))
	}
	if len(comps) != ncomp {
		return 0, fmt.Errorf("want %d components, got %d", ncomp, len(comps))
	}
	n, ok := Product(dims...)
	if !ok || slices.Min(dims) < 1 {
		return 0, fmt.Errorf("bad dims %v", dims)
	}
	for _, c := range comps {
		if len(c) != n {
			return 0, fmt.Errorf("component of length %d for dims %v", len(c), dims)
		}
	}
	return n, nil
}
