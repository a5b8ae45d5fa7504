package cpsz

import (
	"math"

	"repro/internal/cp"
	"repro/internal/field"
)

// Floating-point bound derivation, mirroring the determinant quotient of
// the proposed method but evaluated inexactly (the way cpSZ's numerical
// derivation behaves). A safety factor tightens the bound slightly; the
// residual float slop is precisely what produces the occasional false
// case under robust (exact) re-extraction.
const floatSafety = 0.999

// mesh is the per-dimension part of cpSZ, picked once per call: the
// simplicial mesh walk, the numerical containment test on the original
// data, and the float bound of one cell.
type mesh struct {
	numCells    int
	vertexCells func(v int, buf []int) []int
	// contains reports numerical detection in cell c of the original
	// (float32) field.
	contains func(c int) bool
	// psi bounds the perturbation of vertex idx that keeps cell c's
	// numerical decision, on the working values z.
	psi func(c, idx int, z [][]float64) float64
}

func newMesh(dims []int, comps [][]float32) mesh {
	if len(dims) == 2 {
		m := field.Mesh2D{NX: dims[0], NY: dims[1]}
		return mesh{
			numCells:    m.NumCells(),
			vertexCells: m.VertexCells,
			contains:    func(c int) bool { return cp.NumericalCellContains2D(m, c, comps[0], comps[1]) },
			psi: func(c, idx int, z [][]float64) float64 {
				a, b := other2(m.CellVertices(c), idx)
				u, v := z[0], z[1]
				return psi2f(u[a], v[a], u[b], v[b], u[idx], v[idx])
			},
		}
	}
	m := field.Mesh3D{NX: dims[0], NY: dims[1], NZ: dims[2]}
	return mesh{
		numCells:    m.NumCells(),
		vertexCells: m.VertexCells,
		contains:    func(c int) bool { return cp.NumericalCellContains3D(m, c, comps[0], comps[1], comps[2]) },
		psi: func(c, idx int, z [][]float64) float64 {
			o := other3(m.CellVertices(c), idx)
			return psi3f(z[0], z[1], z[2], o[0], o[1], o[2], idx)
		},
	}
}

// deriveVertexCells returns the sufficient absolute bound for perturbing
// vertex idx over its adjacent cells. The decoupled scheme passes a nil
// cpCell (original data); the coupled one passes the numerically
// detected cells, which force bound zero.
func deriveVertexCells(m mesh, idx int, z [][]float64, cells []int, cpCell []bool) float64 {
	xi := math.Inf(1)
	for _, c := range cells {
		if cpCell != nil && cpCell[c] {
			return 0
		}
		if p := m.psi(c, idx, z); p < xi {
			xi = p
		}
	}
	if math.IsInf(xi, 1) {
		return 0
	}
	return xi
}

func other2(vs [3]int, idx int) (int, int) {
	switch idx {
	case vs[0]:
		return vs[1], vs[2]
	case vs[1]:
		return vs[0], vs[2]
	default:
		return vs[0], vs[1]
	}
}

// psi2f is the float mirror of derive.Psi2D.
func psi2f(u0, v0, u1, v1, u2, v2 float64) float64 {
	det := u0*(v1-v2) - u1*(v0-v2) + u2*(v0-v1)
	psi := quotient(math.Abs(det), math.Abs(v0-v1)+math.Abs(u0-u1))
	psi = math.Min(psi, quotient(math.Abs(u1*v2-v1*u2), math.Abs(u1)+math.Abs(v1)))
	psi = math.Min(psi, quotient(math.Abs(u0*v2-v0*u2), math.Abs(u0)+math.Abs(v0)))
	return floatSafety * psi
}

func quotient(num, den float64) float64 {
	if num == 0 {
		return 0
	}
	if den == 0 {
		return math.Inf(1)
	}
	return num / den
}

func other3(vs [4]int, idx int) [3]int {
	var o [3]int
	k := 0
	for _, v := range vs {
		if v != idx {
			o[k] = v
			k++
		}
	}
	return o
}

// psi3f is the float mirror of derive.Psi3D.
func psi3f(u, v, w []float64, a, b, c, last int) float64 {
	det := det4ones(
		[3]float64{u[a], v[a], w[a]},
		[3]float64{u[b], v[b], w[b]},
		[3]float64{u[c], v[c], w[c]},
		[3]float64{u[last], v[last], w[last]},
	)
	den := math.Abs(det3ones(v[a], w[a], v[b], w[b], v[c], w[c])) +
		math.Abs(det3ones(u[a], w[a], u[b], w[b], u[c], w[c])) +
		math.Abs(det3ones(u[a], v[a], u[b], v[b], u[c], v[c]))
	psi := quotient(math.Abs(det), den)

	rows := [3]int{a, b, c}
	for drop := 0; drop < 3; drop++ {
		var r [2]int
		k := 0
		for i, vtx := range rows {
			if i != drop {
				r[k] = vtx
				k++
			}
		}
		det3 := u[r[0]]*(v[r[1]]*w[last]-w[r[1]]*v[last]) -
			v[r[0]]*(u[r[1]]*w[last]-w[r[1]]*u[last]) +
			w[r[0]]*(u[r[1]]*v[last]-v[r[1]]*u[last])
		den3 := math.Abs(v[r[0]]*w[r[1]]-w[r[0]]*v[r[1]]) +
			math.Abs(u[r[0]]*w[r[1]]-w[r[0]]*u[r[1]]) +
			math.Abs(u[r[0]]*v[r[1]]-v[r[0]]*u[r[1]])
		psi = math.Min(psi, quotient(math.Abs(det3), den3))
	}
	return floatSafety * psi
}

// det3ones computes det[[a0,b0,1],[a1,b1,1],[a2,b2,1]].
func det3ones(a0, b0, a1, b1, a2, b2 float64) float64 {
	return a0*(b1-b2) - a1*(b0-b2) + a2*(b0-b1)
}

// det4ones computes the 4×4 orientation determinant with a ones column.
func det4ones(r0, r1, r2, r3 [3]float64) float64 {
	// Subtract the last row to reduce to a 3×3 determinant.
	m := [3][3]float64{}
	for i, r := range [3][3]float64{r0, r1, r2} {
		for c := 0; c < 3; c++ {
			m[i][c] = r[c] - r3[c]
		}
	}
	return m[0][0]*(m[1][1]*m[2][2]-m[1][2]*m[2][1]) -
		m[0][1]*(m[1][0]*m[2][2]-m[1][2]*m[2][0]) +
		m[0][2]*(m[1][0]*m[2][1]-m[1][1]*m[2][0])
}
