package core

import (
	"repro/internal/cp"
	"repro/internal/derive"
	"repro/internal/exact/filter"
	"repro/internal/field"
)

// dimOps is the per-dimension plug of the compression kernel: mesh
// topology (stencil neighbors, adjacent simplices), the exact
// critical-point detector, and the Ψ derivation call. A new dimension or
// mesh type implements this interface plus a Block/Encoder adapter; the
// sweep, prediction, speculation, and coding in kernel.go come for free.
type dimOps interface {
	// name is the telemetry scope of the dimension ("2d", "3d").
	name() string
	// numCells returns the simplex count of the extended mesh.
	numCells() int
	// cellVertices fills out with the vertex ids of cell c (ndim+1 of
	// them; the caller provides the buffer so the mesh lookup stays on
	// its stack).
	cellVertices(c int, out *[4]int)
	// vertexCells appends the cells incident to vertex v to buf.
	vertexCells(v int, buf []int) []int
	// makeDetector binds the exact detector to the kernel's working
	// arrays with the given global SoS vertex identity.
	makeDetector(gid func(v int) int) cellChecker
	// cellBound computes vertex vid's bound contribution of cell c:
	// min(Ψ, τ′) of Theorem 2 (or the unsound orientation-only ablation
	// variant), raised by the sign-uniformity relaxation when relax is
	// set (Algorithm 2 lines 11–15: a component with uniform strict sign
	// over the cell may relax up to its own SignPreservingBound). xi is
	// the running minimum of the vertex's earlier cells (xi ≤ τ′), and
	// the contract is exact only up to it: min(cb, xi) equals
	// min(xi, max(min(Ψ, τ′), r)) for the cell's relaxation bound r.
	// relaxed reports r > min(Ψ, τ′) when flagOpen is set; once the
	// caller's flag is decided it may be false. r is computed first, and
	// psiCap decides whether Ψ is needed and at which cap (THEORY.md §3).
	// The whole per-cell computation sits behind one call so the mesh
	// lookup and the sign scans stay concrete and inlinable on the
	// kernel's hottest path.
	cellBound(vid, c int, xi, tau int64, orientationOnly, relax, flagOpen bool) (cb int64, relaxed bool)
}

// cellChecker is the detector surface the kernel speculates against.
// Both cp.Detector2D and cp.Detector3D satisfy it. ContainsBatch is the
// cache-blocked bulk form used by the prepare() sweep: it evaluates the
// containment predicate for every cell whose mask bit is set, writing
// into out, amortizing fixed-point loads across a cell row.
type cellChecker interface {
	CellContains(c int) bool
	// CellContainsLocal is CellContains with batched filter-counter
	// accounting, for the speculation trial loop (one kernel, one
	// goroutine, one Local).
	CellContainsLocal(c int, loc *filter.Local) bool
	CellType(c int) cp.Type
	ContainsBatch(mask, out []bool)
}

// newDimOps builds the plug for one dimension over the kernel's extended
// working arrays (which the kernel mutates in place, so the detector and
// Ψ always see the current decompressed prefix). pred is the kernel's
// batched filter-counter block; the 3D Ψ derivation counts its
// certifications there (the 2D derivation is pure int64 and uncounted).
func newDimOps(ndim int, ext [3]int, comps [maxComps][]int64, pred *filter.Local) dimOps {
	if ndim == 2 {
		return &dim2{
			mesh: field.Mesh2D{NX: ext[0], NY: ext[1]},
			u:    comps[0], v: comps[1],
		}
	}
	return &dim3{
		mesh: field.Mesh3D{NX: ext[0], NY: ext[1], NZ: ext[2]},
		u:    comps[0], v: comps[1], w: comps[2],
		pred: pred,
	}
}

// dim2 is the triangle-mesh plug.
type dim2 struct {
	mesh field.Mesh2D
	u, v []int64
}

func (d *dim2) name() string  { return "2d" }
func (d *dim2) numCells() int { return d.mesh.NumCells() }

func (d *dim2) cellVertices(c int, out *[4]int) {
	vs := d.mesh.CellVertices(c)
	out[0], out[1], out[2] = vs[0], vs[1], vs[2]
}

func (d *dim2) vertexCells(v int, buf []int) []int {
	return d.mesh.VertexCells(v, buf)
}

func (d *dim2) makeDetector(gid func(v int) int) cellChecker {
	return &cp.Detector2D{Mesh: d.mesh, U: d.u, V: d.v, GlobalID: gid}
}

func (d *dim2) cellBound(vid, c int, xi, tau int64, orientationOnly, relax, flagOpen bool) (cb int64, relaxed bool) {
	vs := d.mesh.CellVertices(c)
	var r int64
	if relax {
		for _, z := range [2][]int64{d.u, d.v} {
			s := sgn(z[vs[0]])
			if s != 0 && sgn(z[vs[1]]) == s && sgn(z[vs[2]]) == s {
				r = max(r, derive.SignPreservingBound(z[vid]))
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
	u, v, w []int64
	pred    *filter.Local
}

func (d *dim3) name() string  { return "3d" }
func (d *dim3) numCells() int { return d.mesh.NumCells() }

func (d *dim3) cellVertices(c int, out *[4]int) {
	*out = d.mesh.CellVertices(c)
}

func (d *dim3) vertexCells(v int, buf []int) []int {
	return d.mesh.VertexCells(v, buf)
}

func (d *dim3) makeDetector(gid func(v int) int) cellChecker {
	return &cp.Detector3D{Mesh: d.mesh, U: d.u, V: d.v, W: d.w, GlobalID: gid}
}

func (d *dim3) cellBound(vid, c int, xi, tau int64, orientationOnly, relax, flagOpen bool) (cb int64, relaxed bool) {
	vs := d.mesh.CellVertices(c)
	var r int64
	if relax {
		for _, z := range [3][]int64{d.u, d.v, d.w} {
			s := sgn(z[vs[0]])
			if s != 0 && sgn(z[vs[1]]) == s && sgn(z[vs[2]]) == s && sgn(z[vs[3]]) == s {
				r = max(r, derive.SignPreservingBound(z[vid]))
			}
		}
	}
	limit, skip := psiCap(r, xi, tau, flagOpen)
	if skip {
		return r, flagOpen && r > tau
	}
	var o [3]int
	n := 0
	for _, v := range vs {
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
		cb = derive.Psi3DCappedLocal(d.u, d.v, d.w, o[0], o[1], o[2], vid, limit, d.pred)
	}
	if r > cb {
		return r, true
	}
	return cb, false
}
