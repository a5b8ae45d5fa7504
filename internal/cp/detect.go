package cp

import (
	"slices"

	"repro/internal/exact"
	"repro/internal/exact/filter"
	"repro/internal/field"
	"repro/internal/fixed"
	"repro/internal/pool"
)

// Detector detects critical points on a fixed-point 2D or 3D vector
// field over the simplicial mesh of field.Mesh2D/Mesh3D.
type Detector struct {
	// Dims is [NX, NY] or [NX, NY, NZ].
	Dims []int
	// Comps holds one fixed-point component per dimension, indexed like
	// the mesh vertices.
	Comps [][]int64
	// GlobalID maps a mesh vertex index to a globally unique id used for
	// the SoS perturbation indices. It must be set (to the same mapping)
	// on every rank of a distributed run so that tie-breaking is
	// consistent for cells shared across block boundaries; nil means the
	// local index is already global.
	GlobalID func(v int) int
}

func (d *Detector) gid(v int) int {
	if d.GlobalID != nil {
		return d.GlobalID(v)
	}
	return v
}

// SignBits is one component's share of a sign byte: bit 2c when x > 0,
// bit 2c+1 when x < 0, nothing for zero. The AND of a cell's sign bytes
// then keeps a bit exactly when that component is strictly one sign at
// every vertex of the cell (THEORY.md §3), and their OR is zero exactly
// when every vector of the cell is zero.
//
// Branch-free: the sign bit of -x &^ x is set exactly when x > 0 (for
// x = MinInt64, -x wraps to x and the result is 0), and the sign bit of
// x exactly when x < 0.
func SignBits(x int64, c int) uint8 {
	pos := uint8(uint64(-x&^x) >> 63)
	neg := uint8(uint64(x) >> 63)
	return (pos | neg<<1) << (2 * c)
}

// signByte is vertex v's sign byte over every component.
func (d *Detector) signByte(v int) uint8 {
	s := SignBits(d.Comps[0][v], 0) | SignBits(d.Comps[1][v], 1)
	if len(d.Comps) == 3 {
		s |= SignBits(d.Comps[2][v], 2)
	}
	return s
}

// open reports whether a cell whose vertices have sign bytes a, b, c, e
// needs the orientation predicates. A cell is decided by signs alone
// when some component is strictly positive at every vertex, or strictly
// negative at every vertex: every convex combination of the vectors then
// has that component nonzero, so the origin lies outside their hull —
// and the SoS perturbation, being infinitesimal, cannot flip the sign of
// a nonzero integer, so the perturbed test agrees. Fully degenerate
// cells — every vector exactly zero, as in masked land regions — carry
// no feature by convention. Neither kind builds a matrix.
func open(a, b, c, e uint8) bool {
	return a&b&c&e == 0 && a|b|c|e != 0
}

// ContainsVertices reports whether the simplex with vertex ids vs (in
// CellVertices order; a triangle repeats its first id as a fourth, like
// a star entry of the compression kernel) contains a critical point
// according to the robust point-in-simplex test (Algorithm 1) with SoS
// tie-breaking. Predicate certifications are counted into loc, which the
// caller flushes and which must not be nil.
func (d *Detector) ContainsVertices(vs *[4]int, loc *filter.Local) bool {
	return open(d.signByte(vs[0]), d.signByte(vs[1]), d.signByte(vs[2]), d.signByte(vs[3])) &&
		d.orient(vs, loc)
}

// SignDecided reports whether cell c is decided by signs alone (see
// open): it contains no critical point, and the containment predicates
// skip it before building any matrix (THEORY.md §3).
func (d *Detector) SignDecided(c int) bool {
	vs := field.SimplexVertices(d.Dims, c)
	return d.signByte(vs[0])&d.signByte(vs[1])&d.signByte(vs[2])&d.signByte(vs[3]) != 0
}

// orient runs Algorithm 1 over the simplex with vertex ids vs: the
// full-simplex sign followed by the origin-substituted signs, each
// through the certified filter; a certified exact zero goes straight to
// the tie-only SoS path. Global SoS identities are resolved lazily —
// only degenerate predicates pay for them.
func (d *Detector) orient(vs *[4]int, loc *filter.Local) bool {
	if len(d.Comps) == 2 {
		u, v := d.Comps[0], d.Comps[1]
		m := [3][3]int64{{u[vs[0]], v[vs[0]], 1}, {u[vs[1]], v[vs[1]], 1}, {u[vs[2]], v[vs[2]], 1}}
		return d.orient2(&m, vs, loc)
	}
	return d.orient3(vs, loc)
}

// orient2 is orient over a triangle's 3×3 orientation matrices; m is
// the triangle's matrix, which the 2D row kernel builds from the values
// it already holds.
func (d *Detector) orient2(m *[3][3]int64, vs *[4]int, loc *filter.Local) bool {
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

// orient3 is orient over a tetrahedron's 4×4 orientation matrices.
func (d *Detector) orient3(vs *[4]int, loc *filter.Local) bool {
	u, v, w := d.Comps[0], d.Comps[1], d.Comps[2]
	var m [4][4]int64
	for r, vi := range vs {
		m[r] = [4]int64{u[vi], v[vi], w[vi], 1}
	}
	var gids [4]int
	haveGids := false
	s := 0
	for i := -1; i < 4; i++ {
		mr := m
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
// (fixed-point) values. The classification is scale-invariant, so the
// fixed-point scale does not matter.
func (d *Detector) CellType(c int) Type {
	if len(d.Dims) == 2 {
		return d.extract2D(c, 1, 0).Type
	}
	return d.extract3D(c, 1, 0).Type
}

// DetectCells returns the sorted ids of all cells containing a critical
// point. Cell rows are swept concurrently on multi-core hosts via the
// cache-blocked row kernel; the result order is deterministic.
func (d *Detector) DetectCells() []int {
	simplices := len(field.Simplices(len(d.Dims)))
	return detectStripes(d.CellRows(), simplices*(d.Dims[0]-1), func(r0, r1 int, hits []int) []int {
		var loc filter.Local // per-stripe batch: one flush, not one atomic per predicate
		for r := r0; r < r1; r++ {
			hits = d.sweepRow(r, nil, nil, hits, &loc)
		}
		loc.Flush()
		return hits
	})
}

// CellRows is the number of cell rows: one per row of quads (j), or of
// cubes (j, k) as row k·(NY−1)+j.
func (d *Detector) CellRows() int {
	rows := d.Dims[1] - 1
	if len(d.Dims) == 3 {
		rows *= d.Dims[2] - 1
	}
	return rows
}

// ContainsRows evaluates the containment predicate for every cell of
// cell rows [r0, r1) with mask[c] set (nil mask means all cells),
// writing results to out[c] and counting into loc (flushed by the
// caller). Cells with mask[c] unset are left untouched. The evaluation
// is the cache-blocked row sweep: vertex rows are loaded once per cell
// row and corner values slide across the row instead of being re-fetched
// per cell through CellVertices. Row ranges touch disjoint cells of out,
// so callers may sweep disjoint ranges concurrently.
func (d *Detector) ContainsRows(mask, out []bool, r0, r1 int, loc *filter.Local) {
	for r := r0; r < r1; r++ {
		d.sweepRow(r, mask, out, nil, loc)
	}
}

// sweepRow evaluates the simplices of every quad/cube in cell row r. In
// mask/out mode it fills out[c] for cells with mask[c] (nil mask = all);
// in hits mode it appends the ids of containing cells to hits. The two
// dimensions keep their own row kernels: the six tetrahedra of a cube
// share its eight corners' sign bytes, while a triangle's branchy
// per-component test on its three values measured faster on smooth 2D
// fields (Ocean 768×576 detection ~25% slower through the sign bytes).
func (d *Detector) sweepRow(r int, mask, out []bool, hits []int, loc *filter.Local) []int {
	if len(d.Dims) == 2 {
		return d.sweepRow2(r, mask, out, hits, loc)
	}
	return d.sweepRow3(r, mask, out, hits, loc)
}

// sweepRow2 evaluates the two triangles of every quad in cell row r,
// sliding the quad's corner values across the row. A triangle is open
// when no component is strictly one sign at its three vertices and not
// all of its vectors are zero (open).
func (d *Detector) sweepRow2(r int, mask, out []bool, hits []int, loc *filter.Local) []int {
	nx := d.Dims[0]
	u, v := d.Comps[0], d.Comps[1]
	lo := r * nx  // vertex row r
	hi := lo + nx // vertex row r+1
	cbase := r * (nx - 1) * 2
	u00, v00 := u[lo], v[lo]
	u01, v01 := u[hi], v[hi]
	for i := 0; i < nx-1; i++ {
		u10, v10 := u[lo+i+1], v[lo+i+1]
		u11, v11 := u[hi+i+1], v[hi+i+1]
		c := cbase + 2*i
		// t=0: {v00, v10, v11}, t=1: {v00, v11, v01} — the simplex
		// table's diagonal split, in CellVertices order.
		for t := 0; t < 2; t++ {
			if mask != nil && !mask[c+t] {
				continue
			}
			// The two corners after v00, and the star entry.
			ua, va, ub, vb := u10, v10, u11, v11
			vs := [4]int{lo + i, lo + i + 1, hi + i + 1, lo + i}
			if t == 1 {
				ua, va, ub, vb = u11, v11, u01, v01
				vs = [4]int{lo + i, hi + i + 1, hi + i, lo + i}
			}
			got := false
			if !uniform3(u00, ua, ub) && !uniform3(v00, va, vb) &&
				(u00 != 0 || v00 != 0 || ua != 0 || va != 0 || ub != 0 || vb != 0) {
				m := [3][3]int64{{u00, v00, 1}, {ua, va, 1}, {ub, vb, 1}}
				got = d.orient2(&m, &vs, loc)
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

// uniform3 reports whether a, b and c are all strictly positive or all
// strictly negative. A zero entry never qualifies.
func uniform3(a, b, c int64) bool {
	return (a > 0 && b > 0 && c > 0) || (a < 0 && b < 0 && c < 0)
}

// sweepRow3 evaluates the six tetrahedra of every cube in cube row r. The
// corners' sign bytes are computed once per cube (the shared face's slide
// from the previous one) and the tetrahedra are enumerated from the
// simplex table, in exactly CellVertices order; only a cell the sign
// bytes leave open reads its vectors.
func (d *Detector) sweepRow3(r int, mask, out []bool, hits []int, loc *filter.Local) []int {
	nx, ny := d.Dims[0], d.Dims[1]
	tets := field.Simplices(3)
	off := field.CornerOffsets(d.Dims)
	base := (r/(ny-1)*ny + r%(ny-1)) * nx
	cbase := r * (nx - 1) * len(tets)
	u, v, w := d.Comps[0], d.Comps[1], d.Comps[2]
	signByte := func(vi int) uint8 {
		return SignBits(u[vi], 0) | SignBits(v[vi], 1) | SignBits(w[vi], 2)
	}
	// Preload the i=0 face (corners with ox=0); the loop loads the ox=1
	// face and slides it left afterwards.
	var sb [8]uint8
	for corner := 0; corner < 8; corner += 2 {
		sb[corner] = signByte(base + off[corner])
	}
	for i := 0; i < nx-1; i++ {
		for corner := 1; corner < 8; corner += 2 {
			sb[corner] = signByte(base + i + off[corner])
		}
		c0 := cbase + len(tets)*i
		for t := range tets {
			c, tc := c0+t, &tets[t]
			if mask != nil && !mask[c] {
				continue
			}
			got := false
			if open(sb[tc[0]&7], sb[tc[1]&7], sb[tc[2]&7], sb[tc[3]&7]) {
				vs := [4]int{base + i + off[tc[0]&7], base + i + off[tc[1]&7],
					base + i + off[tc[2]&7], base + i + off[tc[3]&7]}
				got = d.orient3(&vs, loc)
			}
			if out != nil {
				out[c] = got
			} else if got {
				hits = append(hits, c)
			}
		}
		for corner := 0; corner < 8; corner += 2 {
			sb[corner] = sb[corner+1]
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
	d := &Detector{Dims: dims, Comps: fx, GlobalID: gid}
	cells := d.DetectCells()
	pts = slices.Grow(pts, len(cells))
	extract := d.extract3D
	if len(dims) == 2 {
		extract = d.extract2D
	}
	for _, c := range cells {
		pts = append(pts, extract(c, scale, off))
	}
	return pts
}

// extract2D computes the position (numerical barycentric solve) and type
// (Jacobian eigenvalues) of the critical point in triangle c; scale is
// the fixed-point scale of the components. yOff
// shifts vertex y coordinates into the global frame BEFORE the
// barycentric combination, so a windowed detector reproduces the
// whole-field positions bit for bit (offsetting the finished position
// instead rounds differently).
func (d *Detector) extract2D(c int, scale float64, yOff int) Point {
	mesh := field.Mesh2D{NX: d.Dims[0], NY: d.Dims[1]}
	u, v := d.Comps[0], d.Comps[1]
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
func (d *Detector) extract3D(c int, scale float64, zOff int) Point {
	mesh := field.Mesh3D{NX: d.Dims[0], NY: d.Dims[1], NZ: d.Dims[2]}
	u, v, w := d.Comps[0], d.Comps[1], d.Comps[2]
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
