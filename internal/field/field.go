// Package field provides structured 2D/3D vector fields and their
// simplicial decompositions.
//
// Critical point detection (package cp) and error bound derivation
// (packages derive and core) operate on a simplicial mesh: every quad of a
// 2D grid is split into 2 triangles and every cube of a 3D grid into 6
// tetrahedra (Freudenthal/Kuhn triangulation), giving the cell counts
// 2×(n₁−1)×(n₂−1) and 6×(n₁−1)×(n₂−1)×(n₃−1) reported in the paper.
package field

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/safedim"
)

// Field2D is a two-component vector field sampled on an NX×NY grid in
// row-major order (index = j*NX + i).
type Field2D struct {
	NX, NY int
	U, V   []float32
}

// NewField2D allocates a zero field of the given dimensions. The vertex
// count is overflow-checked: decode paths validate header dimensions
// before calling, so an overflowing product is a programming error.
func NewField2D(nx, ny int) *Field2D {
	n := safedim.MustProduct(nx, ny)
	return &Field2D{NX: nx, NY: ny, U: make([]float32, n), V: make([]float32, n)}
}

// Clone returns a deep copy of f.
func (f *Field2D) Clone() *Field2D {
	g := NewField2D(f.NX, f.NY)
	copy(g.U, f.U)
	copy(g.V, f.V)
	return g
}

// Idx returns the linear index of grid point (i, j).
func (f *Field2D) Idx(i, j int) int { return j*f.NX + i }

// Components returns the component slices in order (u, v).
func (f *Field2D) Components() [][]float32 { return [][]float32{f.U, f.V} }

// Dims returns the grid dims [NX, NY], the shape the dimension-free
// codecs take next to Components.
func (f *Field2D) Dims() []int { return []int{f.NX, f.NY} }

// At returns the vector at grid point (i, j).
func (f *Field2D) At(i, j int) (u, v float32) {
	idx := f.Idx(i, j)
	return f.U[idx], f.V[idx]
}

// Bilinear evaluates the field at fractional position (x, y) with bilinear
// interpolation, clamping to the domain. Used by streamline/LIC rendering.
func (f *Field2D) Bilinear(x, y float64) (u, v float64) {
	x = clamp(x, 0, float64(f.NX-1))
	y = clamp(y, 0, float64(f.NY-1))
	i, j := int(x), int(y)
	if i >= f.NX-1 {
		i = f.NX - 2
	}
	if j >= f.NY-1 {
		j = f.NY - 2
	}
	fx, fy := x-float64(i), y-float64(j)
	i00 := f.Idx(i, j)
	i10 := f.Idx(i+1, j)
	i01 := f.Idx(i, j+1)
	i11 := f.Idx(i+1, j+1)
	u = lerp2(float64(f.U[i00]), float64(f.U[i10]), float64(f.U[i01]), float64(f.U[i11]), fx, fy)
	v = lerp2(float64(f.V[i00]), float64(f.V[i10]), float64(f.V[i01]), float64(f.V[i11]), fx, fy)
	return u, v
}

// Field3D is a three-component vector field on an NX×NY×NZ grid in
// row-major order (index = (k*NY + j)*NX + i).
type Field3D struct {
	NX, NY, NZ int
	U, V, W    []float32
}

// NewField3D allocates a zero field of the given dimensions. Like
// NewField2D, the vertex count is overflow-checked.
func NewField3D(nx, ny, nz int) *Field3D {
	n := safedim.MustProduct(nx, ny, nz)
	return &Field3D{NX: nx, NY: ny, NZ: nz, U: make([]float32, n), V: make([]float32, n), W: make([]float32, n)}
}

// Clone returns a deep copy of f.
func (f *Field3D) Clone() *Field3D {
	g := NewField3D(f.NX, f.NY, f.NZ)
	copy(g.U, f.U)
	copy(g.V, f.V)
	copy(g.W, f.W)
	return g
}

// Idx returns the linear index of grid point (i, j, k).
func (f *Field3D) Idx(i, j, k int) int { return (k*f.NY+j)*f.NX + i }

// Components returns the component slices in order (u, v, w).
func (f *Field3D) Components() [][]float32 { return [][]float32{f.U, f.V, f.W} }

// Dims returns the grid dims [NX, NY, NZ].
func (f *Field3D) Dims() []int { return []int{f.NX, f.NY, f.NZ} }

// At returns the vector at grid point (i, j, k).
func (f *Field3D) At(i, j, k int) (u, v, w float32) {
	idx := f.Idx(i, j, k)
	return f.U[idx], f.V[idx], f.W[idx]
}

// Trilinear evaluates the field at fractional position (x, y, z), clamping
// to the domain.
func (f *Field3D) Trilinear(x, y, z float64) (u, v, w float64) {
	x = clamp(x, 0, float64(f.NX-1))
	y = clamp(y, 0, float64(f.NY-1))
	z = clamp(z, 0, float64(f.NZ-1))
	i, j, k := int(x), int(y), int(z)
	if i >= f.NX-1 {
		i = f.NX - 2
	}
	if j >= f.NY-1 {
		j = f.NY - 2
	}
	if k >= f.NZ-1 {
		k = f.NZ - 2
	}
	fx, fy, fz := x-float64(i), y-float64(j), z-float64(k)
	sample := func(c []float32) float64 {
		c000 := float64(c[f.Idx(i, j, k)])
		c100 := float64(c[f.Idx(i+1, j, k)])
		c010 := float64(c[f.Idx(i, j+1, k)])
		c110 := float64(c[f.Idx(i+1, j+1, k)])
		c001 := float64(c[f.Idx(i, j, k+1)])
		c101 := float64(c[f.Idx(i+1, j, k+1)])
		c011 := float64(c[f.Idx(i, j+1, k+1)])
		c111 := float64(c[f.Idx(i+1, j+1, k+1)])
		lo := lerp2(c000, c100, c010, c110, fx, fy)
		hi := lerp2(c001, c101, c011, c111, fx, fy)
		return lo + (hi-lo)*fz
	}
	return sample(f.U), sample(f.V), sample(f.W)
}

func lerp2(c00, c10, c01, c11, fx, fy float64) float64 {
	lo := c00 + (c10-c00)*fx
	hi := c01 + (c11-c01)*fx
	return lo + (hi-lo)*fy
}

func clamp(v, lo, hi float64) float64 {
	return math.Min(math.Max(v, lo), hi)
}

// WriteRaw serializes all components as little-endian float32, the common
// raw layout of scientific datasets (one component after another).
func WriteRaw(w io.Writer, components ...[]float32) error {
	for _, c := range components {
		if err := binary.Write(w, binary.LittleEndian, c); err != nil {
			return fmt.Errorf("field: write raw: %w", err)
		}
	}
	return nil
}

// ReadRaw fills the given component slices from little-endian float32 data.
func ReadRaw(r io.Reader, components ...[]float32) error {
	for _, c := range components {
		if err := binary.Read(r, binary.LittleEndian, c); err != nil {
			return fmt.Errorf("field: read raw: %w", err)
		}
	}
	return nil
}
