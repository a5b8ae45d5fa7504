package core

import (
	"repro/internal/cp"
	"repro/internal/derive"
	"repro/internal/exact/filter"
	"repro/internal/field"
)

// dimOps is the per-dimension plug of the compression kernel: mesh
// topology (vertex stars, cell vertices), the exact critical-point
// detector, and the Ψ derivation call. A new dimension or mesh type
// implements this interface plus a Block/Encoder adapter; the sweep,
// prediction, speculation, and coding in kernel.go come for free.
type dimOps interface {
	// name is the telemetry scope of the dimension ("2d", "3d").
	name() string
	// numCells returns the simplex count of the extended mesh.
	numCells() int
	// cellVertices fills out with the vertex ids of cell c as a star
	// entry (a triangle repeats its first vertex as a fourth; the caller
	// provides the buffer so the mesh lookup stays on its stack).
	cellVertices(c int, out *[4]int)
	// star fills cells with the cells incident to vertex v, in
	// field.Mesh*.VertexCells order, and verts[s] with the vertex ids of
	// cells[s], in CellVertices order, and returns the count. A triangle
	// repeats its first vertex in verts[s][3], so a byte-AND over all
	// four ids is the triangle's AND. Interior vertices are served from
	// the stencil table; the boundary shell falls back to the mesh
	// functions.
	star(v int, cells *[maxStar]int, verts *[maxStar][4]int) int
	// makeDetector binds the exact detector to the kernel's working
	// arrays with the given global SoS vertex identity.
	makeDetector(gid func(v int) int) cellChecker
	// cellBound computes vertex vid's bound contribution of the cell
	// with vertex ids vs (a star entry): min(Ψ, τ′) of Theorem 2 (or the
	// unsound orientation-only ablation variant), raised by the
	// sign-uniformity relaxation when relax is set (Algorithm 2 lines
	// 11–15: a component with uniform strict sign over the cell, read
	// from the sign plane, may relax up to its own SignPreservingBound).
	// xi is the running minimum of the vertex's earlier cells (xi ≤ τ′),
	// and the contract is exact only up to it: min(cb, xi) equals
	// min(xi, max(min(Ψ, τ′), r)) for the cell's relaxation bound r.
	// relaxed reports r > min(Ψ, τ′) when flagOpen is set; once the
	// caller's flag is decided it may be false. r is computed first, and
	// psiCap decides whether Ψ is needed and at which cap (THEORY.md §3).
	// The whole per-cell computation sits behind one call so the sign
	// test and the Ψ call stay concrete on the kernel's hottest path. loc
	// is the calling sweeper's batch of filter counters (the 3D Ψ
	// derivation counts its certifications there; the 2D derivation is
	// pure int64 and uncounted).
	cellBound(vid int, vs *[4]int, xi, tau int64, orientationOnly, relax, flagOpen bool, loc *filter.Local) (cb int64, relaxed bool)
}

// cellChecker is the detector surface the kernel speculates against.
// ContainsRows is the cache-blocked bulk form used by the prepare()
// sweep: it evaluates the containment predicate for every cell of a
// range of cell rows whose mask bit is set, writing into out, amortizing
// fixed-point loads across a cell row.
type cellChecker interface {
	// ContainsVertices is the containment predicate of the cell with
	// vertex ids vs (a star entry), with batched filter-counter
	// accounting in loc (one Local per goroutine).
	ContainsVertices(vs *[4]int, loc *filter.Local) bool
	CellType(c int) cp.Type
	CellRows() int
	ContainsRows(mask, out []bool, r0, r1 int, loc *filter.Local)
}

// maxStar is the most cells incident to one vertex: 24 tetrahedra in
// 3D, 6 triangles in 2D.
const maxStar = field.MaxVertexCells3D

// quadTris lists the corners of the two triangles of a unit quad as
// bitmasks ox | oy<<1, in Mesh2D.CellVertices order (t=0: v00, v10, v11;
// t=1: v00, v11, v01), each with its first corner repeated as a fourth.
var quadTris = [2][4]int{{0, 1, 3, 0}, {0, 3, 2, 0}}

// stencil is the star of an interior vertex as offsets — the per-kernel
// form of cpSZ's static table of a vertex's adjacent simplices. Cell s of
// the star is cell[s] plus the id of the quad/cube whose lowest corner is
// the vertex, and its vertices are the vertex id plus vert[s].
type stencil struct {
	n    int
	cell [maxStar]int
	vert [maxStar][4]int
}

// newStencil builds the stencil of an nx×ny(×nz) mesh from its strides,
// enumerating the incident cells in exactly the VertexCells order: the
// quads/cubes around the vertex with dk, dj, di each running -1..0, and
// inside each one its simplices containing the vertex's corner in
// ascending simplex order.
func newStencil(ndim, nx, ny int) stencil {
	simplices := quadTris[:]
	dks := []int{0}
	if ndim == 3 {
		tets := field.CubeTets()
		simplices = tets[:]
		dks = []int{-1, 0}
	}
	var st stencil
	for _, dk := range dks {
		for dj := -1; dj <= 0; dj++ {
			for di := -1; di <= 0; di++ {
				corner := -di | -dj<<1 | -dk<<2
				cube := ((dk*(ny-1)+dj)*(nx-1) + di) * len(simplices)
				for t, cs := range simplices {
					if cs[0] != corner && cs[1] != corner && cs[2] != corner && cs[3] != corner {
						continue
					}
					st.cell[st.n] = cube + t
					for q, c := range cs {
						st.vert[st.n][q] = (di + c&1) + (dj+c>>1&1)*nx + (dk+c>>2&1)*nx*ny
					}
					st.n++
				}
			}
		}
	}
	return st
}

// fill writes the star of the interior vertex v, whose own quad/cube has
// id base, from the table.
func (st *stencil) fill(v, base int, cells *[maxStar]int, verts *[maxStar][4]int) int {
	for s := 0; s < st.n; s++ {
		cells[s] = base + st.cell[s]
		o := &st.vert[s]
		verts[s] = [4]int{v + o[0], v + o[1], v + o[2], v + o[3]}
	}
	return st.n
}

// newDimOps builds the plug for one dimension over the kernel's extended
// working arrays and sign plane (which the kernel mutates in place, so
// the detector and Ψ always see the current decompressed prefix).
func newDimOps(ndim int, ext [3]int, comps [maxComps][]int64, signs []uint8) dimOps {
	st := newStencil(ndim, ext[0], ext[1])
	if ndim == 2 {
		return &dim2{
			mesh: field.Mesh2D{NX: ext[0], NY: ext[1]},
			st:   st,
			u:    comps[0], v: comps[1],
			signs: signs,
		}
	}
	return &dim3{
		mesh: field.Mesh3D{NX: ext[0], NY: ext[1], NZ: ext[2]},
		st:   st,
		u:    comps[0], v: comps[1], w: comps[2],
		signs: signs,
	}
}

// dim2 is the triangle-mesh plug.
type dim2 struct {
	mesh  field.Mesh2D
	st    stencil
	u, v  []int64
	signs []uint8
}

func (d *dim2) name() string  { return "2d" }
func (d *dim2) numCells() int { return d.mesh.NumCells() }

func (d *dim2) cellVertices(c int, out *[4]int) {
	vs := d.mesh.CellVertices(c)
	*out = [4]int{vs[0], vs[1], vs[2], vs[0]}
}

func (d *dim2) star(v int, cells *[maxStar]int, verts *[maxStar][4]int) int {
	nx := d.mesh.NX
	j := v / nx
	i := v - j*nx
	if i == 0 || j == 0 || i == nx-1 || j == d.mesh.NY-1 {
		n := len(d.mesh.VertexCells(v, cells[:0]))
		for s := 0; s < n; s++ {
			d.cellVertices(cells[s], &verts[s])
		}
		return n
	}
	return d.st.fill(v, (j*(nx-1)+i)*2, cells, verts)
}

func (d *dim2) makeDetector(gid func(v int) int) cellChecker {
	return triChecker{&cp.Detector2D{Mesh: d.mesh, U: d.u, V: d.v, GlobalID: gid}}
}

// triChecker adapts the 2D detector to the kernel's four-id star
// entries (a triangle's fourth id repeats its first).
type triChecker struct{ *cp.Detector2D }

func (d triChecker) ContainsVertices(vs *[4]int, loc *filter.Local) bool {
	return d.Detector2D.ContainsVertices((*[3]int)(vs[:3]), loc)
}

func (d *dim2) cellBound(vid int, vs *[4]int, xi, tau int64, orientationOnly, relax, flagOpen bool, _ *filter.Local) (cb int64, relaxed bool) {
	var r int64
	if relax {
		if and := d.signs[vs[0]] & d.signs[vs[1]] & d.signs[vs[2]]; and != 0 {
			for c, z := range [2][]int64{d.u, d.v} {
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
	var a, b int
	switch vid {
	case vs[0]:
		a, b = vs[1], vs[2]
	case vs[1]:
		a, b = vs[0], vs[2]
	default:
		a, b = vs[0], vs[1]
	}
	if orientationOnly {
		cb = min(derive.Psi2DOrientationOnly(d.u, d.v, a, b, vid), limit)
	} else {
		cb = derive.Psi2DCapped(d.u, d.v, a, b, vid, limit)
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

// dim3 is the Freudenthal tetrahedral-mesh plug.
type dim3 struct {
	mesh    field.Mesh3D
	st      stencil
	u, v, w []int64
	signs   []uint8
}

func (d *dim3) name() string  { return "3d" }
func (d *dim3) numCells() int { return d.mesh.NumCells() }

func (d *dim3) cellVertices(c int, out *[4]int) {
	*out = d.mesh.CellVertices(c)
}

func (d *dim3) star(v int, cells *[maxStar]int, verts *[maxStar][4]int) int {
	nx, ny := d.mesh.NX, d.mesh.NY
	q := v / nx
	i := v - q*nx
	k := q / ny
	j := q - k*ny
	if i == 0 || j == 0 || k == 0 || i == nx-1 || j == ny-1 || k == d.mesh.NZ-1 {
		n := len(d.mesh.VertexCells(v, cells[:0]))
		for s := 0; s < n; s++ {
			verts[s] = d.mesh.CellVertices(cells[s])
		}
		return n
	}
	return d.st.fill(v, ((k*(ny-1)+j)*(nx-1)+i)*6, cells, verts)
}

func (d *dim3) makeDetector(gid func(v int) int) cellChecker {
	return &cp.Detector3D{Mesh: d.mesh, U: d.u, V: d.v, W: d.w, GlobalID: gid}
}

func (d *dim3) cellBound(vid int, vs *[4]int, xi, tau int64, orientationOnly, relax, flagOpen bool, loc *filter.Local) (cb int64, relaxed bool) {
	var r int64
	if relax {
		if and := d.signs[vs[0]] & d.signs[vs[1]] & d.signs[vs[2]] & d.signs[vs[3]]; and != 0 {
			for c, z := range [3][]int64{d.u, d.v, d.w} {
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
	var o [3]int
	n := 0
	for _, v := range *vs {
		if v != vid {
			o[n] = v
			n++
		}
	}
	if orientationOnly {
		cb = min(derive.Psi3DOrientationOnly(d.u, d.v, d.w, o[0], o[1], o[2], vid), limit)
	} else {
		// Capped form: the float filter certifies "Ψ ≥ limit" for
		// candidates that cannot lower the min, skipping their exact
		// int128 evaluation; bit-identical to min(Psi3D, limit).
		cb = derive.Psi3DCappedLocal(d.u, d.v, d.w, o[0], o[1], o[2], vid, limit, loc)
	}
	if r > cb {
		return r, true
	}
	return cb, false
}
