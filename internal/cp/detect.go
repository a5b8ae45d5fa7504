package cp

import (
	"slices"

	"repro/internal/exact"
	"repro/internal/exact/filter"
	"repro/internal/field"
	"repro/internal/fixed"
	"repro/internal/shm/pool"
)

// Detector2D detects critical points on a fixed-point 2D vector field.
// U and V are fixed-point component arrays indexed like the mesh vertices.
type Detector2D struct {
	Mesh field.Mesh2D
	U, V []int64
	// GlobalID maps a mesh vertex index to a globally unique id used for
	// the SoS perturbation indices. It must be set (to the same mapping)
	// on every rank of a distributed run so that tie-breaking is
	// consistent for cells shared across block boundaries; nil means the
	// local index is already global.
	GlobalID func(v int) int
}

func (d *Detector2D) gid(v int) int {
	if d.GlobalID != nil {
		return d.GlobalID(v)
	}
	return v
}

// ContainsVertices reports whether the triangle with vertex ids vs (in
// CellVertices order) contains a critical point according to the robust
// point-in-simplex test (Algorithm 1) with SoS tie-breaking. Fully
// degenerate cells — every vector exactly zero, as in masked land
// regions — carry no feature by convention. Predicate certifications
// are counted into loc, which the caller flushes and which must not be
// nil.
func (d *Detector2D) ContainsVertices(vs *[3]int, loc *filter.Local) bool {
	if d.signDecided(vs) {
		return false
	}
	if d.U[vs[0]] == 0 && d.V[vs[0]] == 0 &&
		d.U[vs[1]] == 0 && d.V[vs[1]] == 0 &&
		d.U[vs[2]] == 0 && d.V[vs[2]] == 0 {
		return false
	}
	var m [3][3]int64
	for r, vi := range vs {
		m[r] = [3]int64{d.U[vi], d.V[vi], 1}
	}
	return d.triContains(&m, vs, loc)
}

// SignDecided reports whether triangle c is decided by signs alone: some
// component is strictly positive at all three vertices, or strictly
// negative at all three. Every convex combination of the vectors then
// has that component nonzero, so the origin lies outside their hull —
// and the SoS perturbation, being infinitesimal, cannot flip the sign of
// a nonzero integer, so the perturbed test agrees. Such a cell contains
// no critical point and the containment predicates skip it before
// building any matrix (THEORY.md §3).
func (d *Detector2D) SignDecided(c int) bool {
	vs := d.Mesh.CellVertices(c)
	return d.signDecided(&vs)
}

func (d *Detector2D) signDecided(vs *[3]int) bool {
	return uniform3(d.U[vs[0]], d.U[vs[1]], d.U[vs[2]]) ||
		uniform3(d.V[vs[0]], d.V[vs[1]], d.V[vs[2]])
}

// uniform3 reports whether a, b and c are all strictly positive or all
// strictly negative. A zero entry never qualifies.
func uniform3(a, b, c int64) bool {
	return (a > 0 && b > 0 && c > 0) || (a < 0 && b < 0 && c < 0)
}

// uniform4 is uniform3 over the four vertices of a tetrahedron.
func uniform4(a, b, c, e int64) bool {
	return (a > 0 && b > 0 && c > 0 && e > 0) || (a < 0 && b < 0 && c < 0 && e < 0)
}

// triContains runs Algorithm 1 over an already-built orientation matrix:
// the full-simplex sign followed by the three origin-substituted signs,
// each through the certified filter; a certified exact zero goes straight
// to the tie-only SoS path. Global SoS identities are resolved lazily —
// only degenerate predicates pay for them.
func (d *Detector2D) triContains(m *[3][3]int64, vs *[3]int, loc *filter.Local) bool {
	var gids [3]int
	haveGids := false
	s := 0
	for i := -1; i < 3; i++ {
		mr := *m
		if i >= 0 {
			mr[i] = [3]int64{0, 0, 1}
		}
		si := loc.Orient2Sign(&mr)
		if si == 0 {
			// Certified exact zero: Simulation of Simplicity tie-break.
			if !haveGids {
				gids = [3]int{d.gid(vs[0]), d.gid(vs[1]), d.gid(vs[2])}
				haveGids = true
			}
			si, _ = exact.SoSOrient2Tie(&mr, &gids, i)
		}
		if i < 0 {
			s = si
		} else if si != s {
			return false
		}
	}
	return true
}

// CellType classifies the critical point in cell c from the current
// (fixed-point) values. The classification is scale-invariant, so the
// fixed-point scale does not matter.
func (d *Detector2D) CellType(c int) Type {
	return extract2D(d.Mesh, c, d.U, d.V, 1, 0).Type
}

// DetectCells returns the sorted ids of all cells containing a critical
// point. Cell rows are swept concurrently on multi-core hosts via the
// cache-blocked row kernel; the result order is deterministic.
func (d *Detector2D) DetectCells() []int {
	ny1 := d.Mesh.NY - 1
	return detectStripes(ny1, 2*(d.Mesh.NX-1), func(j0, j1 int, hits []int) []int {
		var loc filter.Local // per-stripe batch: one flush, not one atomic per predicate
		for j := j0; j < j1; j++ {
			hits = d.sweepRow(j, nil, nil, hits, &loc)
		}
		loc.Flush()
		return hits
	})
}

// CellRows is the number of cell rows: one per quad row.
func (d *Detector2D) CellRows() int { return d.Mesh.NY - 1 }

// ContainsRows evaluates the containment predicate for every cell of
// cell rows [r0, r1) with mask[c] set (nil mask means all cells),
// writing results to out[c] and counting into loc (flushed by the
// caller). Cells with mask[c] unset are left untouched. The evaluation
// is the cache-blocked row sweep: vertex rows are loaded once per quad
// row and corner values slide across the row instead of being
// re-fetched per cell through CellVertices. Row ranges touch disjoint
// cells of out, so callers may sweep disjoint ranges concurrently.
func (d *Detector2D) ContainsRows(mask, out []bool, r0, r1 int, loc *filter.Local) {
	for j := r0; j < r1; j++ {
		d.sweepRow(j, mask, out, nil, loc)
	}
}

// sweepRow evaluates the two triangles of every quad in cell row j. In
// mask/out mode it fills out[c] for cells with mask[c] (nil mask = all);
// in hits mode it appends the ids of containing cells to hits.
func (d *Detector2D) sweepRow(j int, mask, out []bool, hits []int, loc *filter.Local) []int {
	nx := d.Mesh.NX
	lo := j * nx  // vertex row j
	hi := lo + nx // vertex row j+1
	cbase := j * (nx - 1) * 2
	u00, v00 := d.U[lo], d.V[lo]
	u01, v01 := d.U[hi], d.V[hi]
	for i := 0; i < nx-1; i++ {
		u10, v10 := d.U[lo+i+1], d.V[lo+i+1]
		u11, v11 := d.U[hi+i+1], d.V[hi+i+1]
		c := cbase + 2*i
		// t=0: {v00, v10, v11}, t=1: {v00, v11, v01} — the mesh's
		// diagonal split, same vertex order as CellVertices.
		for t := 0; t < 2; t++ {
			if mask != nil && !mask[c+t] {
				continue
			}
			// The two corners after v00, and their vertex ids.
			ua, va, ub, vb := u10, v10, u11, v11
			vs := [3]int{lo + i, lo + i + 1, hi + i + 1}
			if t == 1 {
				ua, va, ub, vb = u11, v11, u01, v01
				vs = [3]int{lo + i, hi + i + 1, hi + i}
			}
			got := false
			if !uniform3(u00, ua, ub) && !uniform3(v00, va, vb) &&
				(u00 != 0 || v00 != 0 || ua != 0 || va != 0 || ub != 0 || vb != 0) {
				m := [3][3]int64{{u00, v00, 1}, {ua, va, 1}, {ub, vb, 1}}
				got = d.triContains(&m, &vs, loc)
			}
			if out != nil {
				out[c+t] = got
			} else if got {
				hits = append(hits, c+t)
			}
		}
		u00, v00, u01, v01 = u10, v10, u11, v11
	}
	return hits
}

// Detector3D detects critical points on a fixed-point 3D vector field.
type Detector3D struct {
	Mesh    field.Mesh3D
	U, V, W []int64
	// GlobalID maps a mesh vertex index to a globally unique id; see
	// Detector2D.GlobalID.
	GlobalID func(v int) int
}

func (d *Detector3D) gid(v int) int {
	if d.GlobalID != nil {
		return d.GlobalID(v)
	}
	return v
}

// ContainsVertices reports whether the tetrahedron with vertex ids vs
// (in CellVertices order) contains a critical point; see
// Detector2D.ContainsVertices.
func (d *Detector3D) ContainsVertices(vs *[4]int, loc *filter.Local) bool {
	if d.signDecided(vs) {
		return false
	}
	zero := true
	for _, vi := range vs {
		if d.U[vi] != 0 || d.V[vi] != 0 || d.W[vi] != 0 {
			zero = false
			break
		}
	}
	if zero {
		return false
	}
	var m [4][4]int64
	for r, vi := range vs {
		m[r] = [4]int64{d.U[vi], d.V[vi], d.W[vi], 1}
	}
	return d.tetContains(&m, vs, loc)
}

// SignDecided reports whether tetrahedron c is decided by signs alone;
// see Detector2D.SignDecided.
func (d *Detector3D) SignDecided(c int) bool {
	vs := d.Mesh.CellVertices(c)
	return d.signDecided(&vs)
}

func (d *Detector3D) signDecided(vs *[4]int) bool {
	return uniform4(d.U[vs[0]], d.U[vs[1]], d.U[vs[2]], d.U[vs[3]]) ||
		uniform4(d.V[vs[0]], d.V[vs[1]], d.V[vs[2]], d.V[vs[3]]) ||
		uniform4(d.W[vs[0]], d.W[vs[1]], d.W[vs[2]], d.W[vs[3]])
}

// tetContains is the 3D analogue of Detector2D.triContains: the five
// point-in-simplex predicates over a built matrix, each through the
// certified filter, with SoS identities resolved lazily on degeneracy.
func (d *Detector3D) tetContains(m *[4][4]int64, vs *[4]int, loc *filter.Local) bool {
	var gids [4]int
	haveGids := false
	s := 0
	for i := -1; i < 4; i++ {
		mr := *m
		if i >= 0 {
			mr[i] = [4]int64{0, 0, 0, 1}
		}
		si := loc.Orient3Sign(&mr)
		if si == 0 {
			if !haveGids {
				gids = [4]int{d.gid(vs[0]), d.gid(vs[1]), d.gid(vs[2]), d.gid(vs[3])}
				haveGids = true
			}
			si, _ = exact.SoSOrient3Tie(&mr, &gids, i)
		}
		if i < 0 {
			s = si
		} else if si != s {
			return false
		}
	}
	return true
}

// CellType classifies the critical point in cell c from the current
// (fixed-point) values.
func (d *Detector3D) CellType(c int) Type {
	return extract3D(d.Mesh, c, d.U, d.V, d.W, 1, 0).Type
}

// DetectCells returns the sorted ids of all cells containing a critical
// point. Cube rows are swept concurrently on multi-core hosts via the
// cache-blocked row kernel; the result order is deterministic.
func (d *Detector3D) DetectCells() []int {
	ny1, nz1 := d.Mesh.NY-1, d.Mesh.NZ-1
	return detectStripes(ny1*nz1, 6*(d.Mesh.NX-1), func(s0, s1 int, hits []int) []int {
		var loc filter.Local // per-stripe batch: one flush, not one atomic per predicate
		for s := s0; s < s1; s++ {
			hits = d.sweepRow(s/ny1, s%ny1, nil, nil, hits, &loc)
		}
		loc.Flush()
		return hits
	})
}

// CellRows is the number of cell rows: one per cube row (j, k), row
// k·(NY−1)+j.
func (d *Detector3D) CellRows() int { return (d.Mesh.NY - 1) * (d.Mesh.NZ - 1) }

// ContainsRows evaluates the containment predicate over cell rows
// [r0, r1); see Detector2D.ContainsRows.
func (d *Detector3D) ContainsRows(mask, out []bool, r0, r1 int, loc *filter.Local) {
	ny1 := d.Mesh.NY - 1
	for r := r0; r < r1; r++ {
		d.sweepRow(r/ny1, r%ny1, mask, out, nil, loc)
	}
}

// sweepRow evaluates the six tetrahedra of every cube in cube row (k,j):
// the eight corner values are loaded once per cube (the shared-face four
// slide from the previous cube) and the tetrahedra are enumerated from
// the Freudenthal corner table, in exactly CellVertices order.
func (d *Detector3D) sweepRow(k, j int, mask, out []bool, hits []int, loc *filter.Local) []int {
	nx, ny := d.Mesh.NX, d.Mesh.NY
	tets := field.CubeTets()
	// Vertex ids of the cube's lowest corner row, per corner bitmask:
	// corner ox|oy<<1|oz<<2 sits at base + off[corner].
	var off [8]int
	for corner := 0; corner < 8; corner++ {
		ox := corner & 1
		oy := (corner >> 1) & 1
		oz := (corner >> 2) & 1
		off[corner] = (oz*ny+oy)*nx + ox
	}
	base := (k*ny + j) * nx
	cbase := (k*(ny-1) + j) * (nx - 1) * 6
	var cu, cv, cw [8]int64 // corner values of the current cube
	var zero [8]bool        // corner is exactly (0,0,0)
	// Preload the i=0 face (corners with ox=0); the loop loads the ox=1
	// face and slides it left afterwards.
	for _, corner := range [4]int{0, 2, 4, 6} {
		vi := base + off[corner]
		cu[corner], cv[corner], cw[corner] = d.U[vi], d.V[vi], d.W[vi]
		zero[corner] = cu[corner] == 0 && cv[corner] == 0 && cw[corner] == 0
	}
	for i := 0; i < nx-1; i++ {
		for _, corner := range [4]int{1, 3, 5, 7} {
			vi := base + i + off[corner]
			cu[corner], cv[corner], cw[corner] = d.U[vi], d.V[vi], d.W[vi]
			zero[corner] = cu[corner] == 0 && cv[corner] == 0 && cw[corner] == 0
		}
		c0 := cbase + 6*i
		for t := 0; t < 6; t++ {
			c := c0 + t
			if mask != nil && !mask[c] {
				continue
			}
			tc := &tets[t]
			got := false
			if !uniform4(cu[tc[0]], cu[tc[1]], cu[tc[2]], cu[tc[3]]) &&
				!uniform4(cv[tc[0]], cv[tc[1]], cv[tc[2]], cv[tc[3]]) &&
				!uniform4(cw[tc[0]], cw[tc[1]], cw[tc[2]], cw[tc[3]]) &&
				!(zero[tc[0]] && zero[tc[1]] && zero[tc[2]] && zero[tc[3]]) {
				var m [4][4]int64
				var vs [4]int
				for r, corner := range tc {
					m[r] = [4]int64{cu[corner], cv[corner], cw[corner], 1}
					vs[r] = base + i + off[corner]
				}
				got = d.tetContains(&m, &vs, loc)
			}
			if out != nil {
				out[c] = got
			} else if got {
				hits = append(hits, c)
			}
		}
		for corner := 0; corner < 8; corner += 2 {
			cu[corner], cv[corner], cw[corner] = cu[corner+1], cv[corner+1], cw[corner+1]
			zero[corner] = zero[corner+1]
		}
	}
	return hits
}

// detectStripes fans stripe-aligned sweeps (cell rows in 2D, cube rows
// in 3D) over the shared worker pool and concatenates the hits in cell
// order. The sweep is pure (reads only), so this is safe and
// deterministic for any worker count.
func detectStripes(stripes, stripeCells int, sweep func(s0, s1 int, hits []int) []int) []int {
	workers := pool.Workers(0)
	const minCells = 8192
	if workers <= 1 || stripes*stripeCells < 2*minCells {
		return sweep(0, stripes, nil)
	}
	chunks := workers
	if chunks > stripes {
		chunks = stripes
	}
	chunk := (stripes + chunks - 1) / chunks
	parts := make([][]int, chunks)
	pool.Do(workers, chunks, func(w int) {
		s0 := w * chunk
		s1 := s0 + chunk
		if s1 > stripes {
			s1 = stripes
		}
		if s0 < s1 {
			parts[w] = sweep(s0, s1, nil)
		}
	})
	var out []int
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// Detect converts a whole field of dims [NX, NY] or [NX, NY, NZ] (one
// component per dimension) to fixed point with tr and extracts all
// critical points with position and type.
func Detect(dims []int, comps [][]float32, tr fixed.Transform) []Point {
	fx := make([][]int64, len(comps))
	for c := range comps {
		fx[c] = make([]int64, len(comps[c]))
		tr.ToFixed(comps[c], fx[c])
	}
	return appendPoints(nil, dims, fx, tr.Scale, 0, nil)
}

// DetectField2D is Detect on a 2D field.
//
// Deprecated: use Detect(f.Dims(), f.Components(), tr).
func DetectField2D(f *field.Field2D, tr fixed.Transform) []Point {
	return Detect(f.Dims(), f.Components(), tr)
}

// DetectField3D is Detect on a 3D field.
//
// Deprecated: use Detect(f.Dims(), f.Components(), tr).
func DetectField3D(f *field.Field3D, tr fixed.Transform) []Point {
	return Detect(f.Dims(), f.Components(), tr)
}

// appendPoints runs the robust detector over a fixed-point field of dims
// and appends each critical point, extracted in the global frame, to pts.
// off is the slow-axis index of the field's first plane in the global
// domain and gid its vertex-id map (0 and nil for a whole field); cell
// ids stay local.
func appendPoints(pts []Point, dims []int, fx [][]int64, scale float64, off int, gid func(int) int) []Point {
	if len(dims) == 2 {
		d := &Detector2D{Mesh: field.Mesh2D{NX: dims[0], NY: dims[1]}, U: fx[0], V: fx[1], GlobalID: gid}
		cells := d.DetectCells()
		pts = slices.Grow(pts, len(cells))
		for _, c := range cells {
			pts = append(pts, extract2D(d.Mesh, c, d.U, d.V, scale, off))
		}
		return pts
	}
	d := &Detector3D{Mesh: field.Mesh3D{NX: dims[0], NY: dims[1], NZ: dims[2]}, U: fx[0], V: fx[1], W: fx[2], GlobalID: gid}
	cells := d.DetectCells()
	pts = slices.Grow(pts, len(cells))
	for _, c := range cells {
		pts = append(pts, extract3D(d.Mesh, c, d.U, d.V, d.W, scale, off))
	}
	return pts
}

// extract2D computes the position (numerical barycentric solve) and type
// (Jacobian eigenvalues) of the critical point in triangle c. yOff
// shifts vertex y coordinates into the global frame BEFORE the
// barycentric combination, so a windowed detector reproduces the
// whole-field positions bit for bit (offsetting the finished position
// instead rounds differently).
func extract2D(mesh field.Mesh2D, c int, u, v []int64, scale float64, yOff int) Point {
	vs := mesh.CellVertices(c)
	var fu, fv [3]float64
	var px, py [3]float64
	for i, vi := range vs {
		fu[i] = float64(u[vi]) / scale
		fv[i] = float64(v[vi]) / scale
		xi, yi := mesh.VertexPos(vi)
		px[i], py[i] = float64(xi), float64(yi+yOff)
	}
	mu, ok := solveBary2(fu, fv)
	if !ok {
		// Singular interpolant: place the point at the centroid.
		mu = [3]float64{1.0 / 3, 1.0 / 3, 1.0 / 3}
	}
	pos := [3]float64{
		mu[0]*px[0] + mu[1]*px[1] + mu[2]*px[2],
		mu[0]*py[0] + mu[1]*py[1] + mu[2]*py[2],
		0,
	}
	// Jacobian J = G D⁻¹ with D the position difference matrix.
	d1x, d1y := px[1]-px[0], py[1]-py[0]
	d2x, d2y := px[2]-px[0], py[2]-py[0]
	det := d1x*d2y - d2x*d1y
	g1u, g1v := fu[1]-fu[0], fv[1]-fv[0]
	g2u, g2v := fu[2]-fu[0], fv[2]-fv[0]
	inv := 1 / det
	var j [2][2]float64
	j[0][0] = (g1u*d2y - g2u*d1y) * inv
	j[0][1] = (g2u*d1x - g1u*d2x) * inv
	j[1][0] = (g1v*d2y - g2v*d1y) * inv
	j[1][1] = (g2v*d1x - g1v*d2x) * inv
	return Point{Cell: c, Type: classify2(j), Pos: pos}
}

// solveBary2 solves [[u0,u1,u2],[v0,v1,v2],[1,1,1]] μ = (0,0,1)ᵀ with
// Cramer's rule. Degenerate systems report ok=false; callers decide how
// to handle the singular case rather than pattern-matching a sentinel
// weight vector (which a genuine centroid solution is indistinguishable
// from).
func solveBary2(u, v [3]float64) (mu [3]float64, ok bool) {
	det := u[0]*(v[1]-v[2]) - u[1]*(v[0]-v[2]) + u[2]*(v[0]-v[1])
	if det == 0 {
		return mu, false
	}
	m0 := u[1]*v[2] - u[2]*v[1]
	m1 := u[2]*v[0] - u[0]*v[2]
	m2 := u[0]*v[1] - u[1]*v[0]
	return [3]float64{m0 / det, m1 / det, m2 / det}, true
}

// extract3D computes position and type of the critical point in
// tetrahedron c. zOff shifts vertex z into the global frame before the
// barycentric combination; see extract2D.
func extract3D(mesh field.Mesh3D, c int, u, v, w []int64, scale float64, zOff int) Point {
	vs := mesh.CellVertices(c)
	var f [3][4]float64 // component × vertex
	var p [3][4]float64 // axis × vertex
	for i, vi := range vs {
		f[0][i] = float64(u[vi]) / scale
		f[1][i] = float64(v[vi]) / scale
		f[2][i] = float64(w[vi]) / scale
		xi, yi, zi := mesh.VertexPos(vi)
		p[0][i], p[1][i], p[2][i] = float64(xi), float64(yi), float64(zi+zOff)
	}
	mu, ok := solveBary3(f)
	if !ok {
		// Singular interpolant: place the point at the centroid.
		mu = [4]float64{0.25, 0.25, 0.25, 0.25}
	}
	var pos [3]float64
	for a := 0; a < 3; a++ {
		for i := 0; i < 4; i++ {
			pos[a] += mu[i] * p[a][i]
		}
	}
	// J = G D⁻¹; D columns are position differences, G columns vector
	// differences (both 3×3).
	var dm, gm [3][3]float64
	for col := 0; col < 3; col++ {
		for a := 0; a < 3; a++ {
			dm[a][col] = p[a][col+1] - p[a][0]
			gm[a][col] = f[a][col+1] - f[a][0]
		}
	}
	inv, ok := invert3(dm)
	if !ok {
		return Point{Cell: c, Type: TypeDegenerate, Pos: pos}
	}
	var j [3][3]float64
	for r := 0; r < 3; r++ {
		for cc := 0; cc < 3; cc++ {
			for k := 0; k < 3; k++ {
				j[r][cc] += gm[r][k] * inv[k][cc]
			}
		}
	}
	return Point{Cell: c, Type: classify3(j), Pos: pos}
}

// solveBary3 solves the 4×4 barycentric system for a 3D simplex.
// Singular systems report ok=false: a centroid sentinel would collide
// with the exact solution of a perfectly symmetric tetrahedron.
func solveBary3(f [3][4]float64) (_ [4]float64, ok bool) {
	// Solve [[u...],[v...],[w...],[1,1,1,1]] μ = (0,0,0,1)ᵀ by Gaussian
	// elimination with partial pivoting.
	var a [4][5]float64
	for c := 0; c < 4; c++ {
		a[0][c] = f[0][c]
		a[1][c] = f[1][c]
		a[2][c] = f[2][c]
		a[3][c] = 1
	}
	a[3][4] = 1
	for col := 0; col < 4; col++ {
		piv := col
		for r := col + 1; r < 4; r++ {
			if abs(a[r][col]) > abs(a[piv][col]) {
				piv = r
			}
		}
		if a[piv][col] == 0 {
			return [4]float64{}, false
		}
		a[col], a[piv] = a[piv], a[col]
		for r := 0; r < 4; r++ {
			if r == col {
				continue
			}
			fac := a[r][col] / a[col][col]
			for cc := col; cc < 5; cc++ {
				a[r][cc] -= fac * a[col][cc]
			}
		}
	}
	var mu [4]float64
	for r := 0; r < 4; r++ {
		mu[r] = a[r][4] / a[r][r]
	}
	return mu, true
}

func invert3(m [3][3]float64) ([3][3]float64, bool) {
	det := m[0][0]*(m[1][1]*m[2][2]-m[1][2]*m[2][1]) -
		m[0][1]*(m[1][0]*m[2][2]-m[1][2]*m[2][0]) +
		m[0][2]*(m[1][0]*m[2][1]-m[1][1]*m[2][0])
	if det == 0 {
		return [3][3]float64{}, false
	}
	inv := 1 / det
	var r [3][3]float64
	r[0][0] = (m[1][1]*m[2][2] - m[1][2]*m[2][1]) * inv
	r[0][1] = (m[0][2]*m[2][1] - m[0][1]*m[2][2]) * inv
	r[0][2] = (m[0][1]*m[1][2] - m[0][2]*m[1][1]) * inv
	r[1][0] = (m[1][2]*m[2][0] - m[1][0]*m[2][2]) * inv
	r[1][1] = (m[0][0]*m[2][2] - m[0][2]*m[2][0]) * inv
	r[1][2] = (m[0][2]*m[1][0] - m[0][0]*m[1][2]) * inv
	r[2][0] = (m[1][0]*m[2][1] - m[1][1]*m[2][0]) * inv
	r[2][1] = (m[0][1]*m[2][0] - m[0][0]*m[2][1]) * inv
	r[2][2] = (m[0][0]*m[1][1] - m[0][1]*m[1][0]) * inv
	return r, true
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
