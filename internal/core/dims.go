package core

import (
	"strconv"

	"repro/internal/derive"
	"repro/internal/exact/filter"
	"repro/internal/field"
)

// cellMesh is the kernel's simplicial mesh over its extended working
// arrays: the triangles of field.Mesh2D or the tetrahedra of
// field.Mesh3D, whichever the block's dimension is. A triangle repeats
// its first vertex id as a fourth, so every cell is a four-id star entry
// and a byte-AND over the four ids is the triangle's AND. Only the Ψ
// call in cellBound differs between the dimensions.
type cellMesh struct {
	ndim  int
	dims  []int // the extended dims, ext[:ndim]
	ext   [3]int
	per   int // simplices per quad/cube
	st    stencil
	comps [maxComps][]int64
	signs []uint8
}

// maxStar is the most cells incident to one vertex: 24 tetrahedra in
// 3D, 6 triangles in 2D.
const maxStar = field.MaxVertexCells3D

// stencil is the star of an interior vertex as offsets — the per-kernel
// form of cpSZ's static table of a vertex's adjacent simplices. Cell s of
// the star is cell[s] plus the id of the quad/cube whose lowest corner is
// the vertex, and its vertices are the vertex id plus vert[s].
type stencil struct {
	n    int
	cell [maxStar]int
	vert [maxStar][4]int
}

// newCellMesh builds the mesh of one dimension over the kernel's
// extended working arrays and sign plane (which the kernel mutates in
// place, so the detector and Ψ always see the current decompressed
// prefix).
func newCellMesh(ndim int, ext [3]int, comps [maxComps][]int64, signs []uint8) *cellMesh {
	m := &cellMesh{ndim: ndim, ext: ext, per: len(field.Simplices(ndim)), comps: comps, signs: signs}
	m.dims = m.ext[:ndim]
	// The stencil is the star of the interior vertex (1, 1[, 1]) as
	// offsets from its id and its quad/cube's id. Both ids are linear in
	// the grid position, so every interior vertex has the same offsets;
	// a mesh without interior vertices never reads them.
	if ext[0] > 2 && ext[1] > 2 && (ndim == 2 || ext[2] > 2) {
		v, q := 1+ext[0], 1+(ext[0]-1)
		if ndim == 3 {
			v, q = v+ext[0]*ext[1], q+(ext[0]-1)*(ext[1]-1)
		}
		cells := field.VertexCells(m.dims, v, m.st.cell[:0])
		m.st.n = len(cells)
		for s, c := range cells {
			vs := field.SimplexVertices(m.dims, c)
			m.st.cell[s] = c - q*m.per
			m.st.vert[s] = [4]int{vs[0] - v, vs[1] - v, vs[2] - v, vs[3] - v}
		}
	}
	return m
}

// name is the telemetry scope of the dimension ("2d", "3d").
func (m *cellMesh) name() string { return strconv.Itoa(m.ndim) + "d" }

// numCells returns the simplex count of the extended mesh.
func (m *cellMesh) numCells() int {
	n := m.per
	for _, d := range m.dims {
		n *= d - 1
	}
	return n
}

// star fills cells with the cells incident to vertex v, in
// field.VertexCells order, and verts[s] with the vertex ids of cells[s],
// in field.SimplexVertices order, and returns the count. Interior
// vertices are served from the stencil table; the boundary shell asks
// the mesh functions.
func (m *cellMesh) star(v int, cells *[maxStar]int, verts *[maxStar][4]int) int {
	nx, ny := m.ext[0], m.ext[1]
	q := v / nx
	i := v - q*nx
	k := q / ny
	j := q - k*ny
	if i == 0 || j == 0 || i == nx-1 || j == ny-1 || (m.ndim == 3 && (k == 0 || k == m.ext[2]-1)) {
		n := len(field.VertexCells(m.dims, v, cells[:0]))
		for s := 0; s < n; s++ {
			verts[s] = field.SimplexVertices(m.dims, cells[s])
		}
		return n
	}
	base := ((k*(ny-1)+j)*(nx-1) + i) * m.per
	for s := 0; s < m.st.n; s++ {
		cells[s] = base + m.st.cell[s]
		o := &m.st.vert[s]
		verts[s] = [4]int{v + o[0], v + o[1], v + o[2], v + o[3]}
	}
	return m.st.n
}

// cellBound computes vertex vid's bound contribution of the cell with
// vertex ids vs (a star entry): min(Ψ, τ′) of Theorem 2 (or the unsound
// orientation-only ablation variant), raised by the sign-uniformity
// relaxation when relax is set (Algorithm 2 lines 11–15: a component
// with uniform strict sign over the cell, read from the sign plane, may
// relax up to its own SignPreservingBound). xi is the running minimum of
// the vertex's earlier cells (xi ≤ τ′), and the contract is exact only
// up to it: min(cb, xi) equals min(xi, max(min(Ψ, τ′), r)) for the
// cell's relaxation bound r. relaxed reports r > min(Ψ, τ′) when
// flagOpen is set; once the caller's flag is decided it may be false. r
// is computed first, and psiCap decides whether Ψ is needed and at which
// cap (THEORY.md §3). loc is the calling sweeper's batch of filter
// counters (the 3D Ψ derivation counts its certifications there; the 2D
// derivation is pure int64 and uncounted).
func (m *cellMesh) cellBound(vid int, vs *[4]int, xi, tau int64, orientationOnly, relax, flagOpen bool, loc *filter.Local) (cb int64, relaxed bool) {
	var r int64
	if relax {
		if and := m.signs[vs[0]] & m.signs[vs[1]] & m.signs[vs[2]] & m.signs[vs[3]]; and != 0 {
			for c, z := range m.comps[:m.ndim] {
				if and>>(2*c)&3 != 0 {
					r = max(r, derive.SignPreservingBound(z[vid]))
				}
			}
		}
	}
	limit, skip := psiCap(r, xi, tau, flagOpen)
	if skip {
		return r, flagOpen && r > tau
	}
	// The cell's other vertices, in star-entry order.
	var o [3]int
	n := 0
	for _, v := range vs[:m.ndim+1] {
		if v != vid {
			o[n] = v
			n++
		}
	}
	u, v, w := m.comps[0], m.comps[1], m.comps[2]
	switch {
	case m.ndim == 2 && orientationOnly:
		cb = min(derive.Psi2DOrientationOnly(u, v, o[0], o[1], vid), limit)
	case m.ndim == 2:
		cb = min(derive.Psi2D(u, v, o[0], o[1], vid), limit)
	case orientationOnly:
		cb = min(derive.Psi3DOrientationOnly(u, v, w, o[0], o[1], o[2], vid), limit)
	default:
		// The float filter certifies "Ψ ≥ limit" for candidates that
		// cannot lower the min, skipping their exact int128 evaluation.
		cb = derive.Psi3D(u, v, w, o[0], o[1], o[2], vid, limit, loc)
	}
	if r > cb {
		return r, true
	}
	return cb, false
}

// psiCap decides whether a cell whose relaxation bound is r needs Ψ at
// all, and at which cap. With r ≥ xi the cell cannot lower the running
// minimum xi whatever Ψ is, so Ψ only matters for the relaxed flag: not
// at all once the flag is decided or when r == 0 (nothing lies below
// it), nor when r > τ′ (min(Ψ, τ′) < r is then certain). The one case
// left, 0 < r ≤ τ′, evaluates Ψ capped at r, which decides Ψ < r exactly.
// Otherwise Ψ is capped at xi: since xi ≤ τ′, min(max(min(Ψ, τ′), r), xi)
// equals min(max(min(Ψ, xi), r), xi) and r > min(Ψ, τ′) equals
// r > min(Ψ, xi), so the tighter cap changes no decision.
func psiCap(r, xi, tau int64, flagOpen bool) (limit int64, skip bool) {
	if r < xi {
		return xi, false
	}
	if !flagOpen || r == 0 || r > tau {
		return 0, true
	}
	return r, false
}
