package field

// Simplicial meshes over structured grids.
//
// Cell identifiers are dense integers:
//
//	2D: cell = (j*(NX-1) + i)*2 + t          with t ∈ {0,1}
//	3D: cell = ((k*(NY-1) + j)*(NX-1) + i)*6 + t  with t ∈ {0..5}
//
// where (i,j[,k]) addresses the quad/cube whose lowest corner is that grid
// point and t selects the triangle/tetrahedron inside it.

// Mesh2D is the 2-triangles-per-quad decomposition of an NX×NY grid.
type Mesh2D struct {
	NX, NY int
}

// NumVertices returns the number of grid points.
func (m Mesh2D) NumVertices() int { return m.NX * m.NY }

// NumCells returns 2*(NX-1)*(NY-1).
func (m Mesh2D) NumCells() int { return 2 * (m.NX - 1) * (m.NY - 1) }

// MaxVertexCells is the maximum number of triangles incident to a vertex.
const MaxVertexCells2D = 6

// CellVertices returns the three vertex indices of triangle c.
// Quad (i,j) splits along the v00–v11 diagonal:
//
//	t=0: {v00, v10, v11}   t=1: {v00, v11, v01}
func (m Mesh2D) CellVertices(c int) [3]int {
	t := c & 1
	q := c >> 1
	i := q % (m.NX - 1)
	j := q / (m.NX - 1)
	v00 := j*m.NX + i
	v10 := v00 + 1
	v01 := v00 + m.NX
	v11 := v01 + 1
	if t == 0 {
		return [3]int{v00, v10, v11}
	}
	return [3]int{v00, v11, v01}
}

// VertexCells appends the triangles incident to vertex v to buf and
// returns the result. An interior vertex has exactly 6 incident triangles.
func (m Mesh2D) VertexCells(v int, buf []int) []int {
	return VertexCells([]int{m.NX, m.NY}, v, buf)
}

// VertexPos returns the grid coordinates of vertex v.
func (m Mesh2D) VertexPos(v int) (i, j int) {
	return v % m.NX, v / m.NX
}

// Mesh3D is the 6-tetrahedra-per-cube (Freudenthal) decomposition.
type Mesh3D struct {
	NX, NY, NZ int
}

// MaxVertexCells3D is the maximum number of tetrahedra incident to a vertex.
const MaxVertexCells3D = 24

// tetCorners lists, for each of the 6 tetrahedra of a unit cube, its 4
// corners encoded as bitmasks ox | oy<<1 | oz<<2. Tetrahedron p follows the
// monotone lattice path 000 → e_{a} → e_{a}+e_{b} → 111 for each
// permutation (a,b,c) of the axes.
var tetCorners [6][4]int

func init() {
	perms := [6][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for t, p := range perms {
		c0 := 0
		c1 := c0 | 1<<p[0]
		c2 := c1 | 1<<p[1]
		c3 := 7
		tetCorners[t] = [4]int{c0, c1, c2, c3}
	}
}

// quadTris lists the corners of the two triangles of a unit quad as
// bitmasks ox | oy<<1, in Mesh2D.CellVertices order, each with its first
// corner repeated as a fourth.
var quadTris = [2][4]int{{0, 1, 3, 0}, {0, 3, 2, 0}}

// Simplices returns the simplex table of a unit quad (ndim 2) or cube
// (ndim 3): per simplex, its corners as bitmasks ox | oy<<1 | oz<<2, in
// the exact order CellVertices uses. A triangle repeats its first corner
// as a fourth, so both tables have four corners per simplex. Cell-row
// sweeps and vertex stencils enumerate a quad's or cube's simplices from
// it without the per-cell div/mod of CellVertices. The table is shared:
// callers must not modify it.
func Simplices(ndim int) [][4]int {
	if ndim == 2 {
		return quadTris[:]
	}
	return tetCorners[:]
}

// CornerOffsets returns, on a grid of dims ([NX, NY] or [NX, NY, NZ]),
// the vertex-id offset of each quad or cube corner ox | oy<<1 | oz<<2
// from the corner at its origin (in 2D only the first four are set).
func CornerOffsets(dims []int) [8]int {
	var off [8]int
	for corner := range off[:1<<len(dims)] {
		off[corner] = cornerOffset(corner, dims[0], dims[1])
	}
	return off
}

func cornerOffset(corner, nx, ny int) int {
	return (corner>>2*ny+corner>>1&1)*nx + corner&1
}

// SimplexVertices returns the vertex ids of cell c of the mesh over a
// grid of dims ([NX, NY] or [NX, NY, NZ]), in CellVertices order. A
// triangle repeats its first id as a fourth.
func SimplexVertices(dims []int, c int) [4]int {
	if len(dims) == 2 {
		vs := Mesh2D{NX: dims[0], NY: dims[1]}.CellVertices(c)
		return [4]int{vs[0], vs[1], vs[2], vs[0]}
	}
	return Mesh3D{NX: dims[0], NY: dims[1], NZ: dims[2]}.CellVertices(c)
}

// VertexCells appends the cells incident to vertex v of the mesh over a
// grid of dims to buf and returns the result: the quads/cubes around the
// vertex with dk, dj, di each running −1..0 (dk only 0 in 2D), and
// inside each one its simplices containing the vertex's corner in
// ascending simplex order.
func VertexCells(dims []int, v int, buf []int) []int {
	nx, ny := dims[0], dims[1]
	simplices := Simplices(len(dims))
	i, j, k := v%nx, v/nx%ny, v/(nx*ny)
	layers, dk0 := 1, 0
	if len(dims) == 3 {
		layers, dk0 = dims[2]-1, -1
	}
	for dk := dk0; dk <= 0; dk++ {
		for dj := -1; dj <= 0; dj++ {
			for di := -1; di <= 0; di++ {
				qi, qj, qk := i+di, j+dj, k+dk
				if qi < 0 || qj < 0 || qk < 0 || qi >= nx-1 || qj >= ny-1 || qk >= layers {
					continue
				}
				corner := -di | -dj<<1 | -dk<<2
				base := ((qk*(ny-1)+qj)*(nx-1) + qi) * len(simplices)
				for t, cs := range simplices {
					if cs[0] == corner || cs[1] == corner || cs[2] == corner || cs[3] == corner {
						buf = append(buf, base+t)
					}
				}
			}
		}
	}
	return buf
}

// NumVertices returns the number of grid points.
func (m Mesh3D) NumVertices() int { return m.NX * m.NY * m.NZ }

// NumCells returns 6*(NX-1)*(NY-1)*(NZ-1).
func (m Mesh3D) NumCells() int { return 6 * (m.NX - 1) * (m.NY - 1) * (m.NZ - 1) }

// CellVertices returns the four vertex indices of tetrahedron c.
func (m Mesh3D) CellVertices(c int) [4]int {
	t := c % 6
	q := c / 6
	i := q % (m.NX - 1)
	q /= m.NX - 1
	j := q % (m.NY - 1)
	k := q / (m.NY - 1)
	base := (k*m.NY+j)*m.NX + i
	var vs [4]int
	for n, corner := range tetCorners[t] {
		vs[n] = base + cornerOffset(corner, m.NX, m.NY)
	}
	return vs
}

// VertexPos returns the grid coordinates of vertex v.
func (m Mesh3D) VertexPos(v int) (i, j, k int) {
	return v % m.NX, (v / m.NX) % m.NY, v / (m.NX * m.NY)
}

// VertexCells appends the tetrahedra incident to vertex v to buf and
// returns the result. An interior vertex has exactly 24 incident
// tetrahedra (matching the cost analysis in the paper).
func (m Mesh3D) VertexCells(v int, buf []int) []int {
	return VertexCells([]int{m.NX, m.NY, m.NZ}, v, buf)
}
