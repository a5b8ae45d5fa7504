package cp

import (
	"testing"

	"repro/internal/field"
)

func TestCellType2D(t *testing.T) {
	f := linear2D(8, 3.4, 2.6, 1, -1) // saddle
	tr := mustFit2D(t, f)
	u := make([]int64, len(f.U))
	v := make([]int64, len(f.V))
	tr.ToFixed(f.U, u)
	tr.ToFixed(f.V, v)
	d := &Detector{Dims: []int{8, 8}, Comps: [][]int64{u, v}}
	cells := d.DetectCells()
	if len(cells) != 1 {
		t.Fatalf("%d cells", len(cells))
	}
	if got := d.CellType(cells[0]); got != TypeSaddle {
		t.Errorf("CellType = %v, want saddle", got)
	}
}

func TestCellType3D(t *testing.T) {
	f := linear3D(6, [3]float64{2.3, 2.7, 2.5}, [3]float64{1, 1, 1}) // source
	tr := mustFit3D(t, f)
	u := make([]int64, len(f.U))
	v := make([]int64, len(f.V))
	w := make([]int64, len(f.W))
	tr.ToFixed(f.U, u)
	tr.ToFixed(f.V, v)
	tr.ToFixed(f.W, w)
	d := &Detector{Dims: []int{6, 6, 6}, Comps: [][]int64{u, v, w}}
	cells := d.DetectCells()
	if len(cells) != 1 {
		t.Fatalf("%d cells", len(cells))
	}
	if got := d.CellType(cells[0]); got != TypeRepellingNode {
		t.Errorf("CellType = %v, want repelling node", got)
	}
}

func TestNumericalCellContains3D(t *testing.T) {
	f := linear3D(6, [3]float64{2.3, 2.7, 2.5}, [3]float64{1, 1, 1})
	mesh := field.Mesh3D{NX: 6, NY: 6, NZ: 6}
	count := 0
	for c := 0; c < mesh.NumCells(); c++ {
		if NumericalCellContains3D(mesh, c, f.U, f.V, f.W) {
			count++
		}
	}
	if count != 1 {
		t.Errorf("numerical 3D detection found %d cells, want 1", count)
	}
	// A uniform field has no zeros.
	g := field.NewField3D(4, 4, 4)
	for i := range g.U {
		g.U[i], g.V[i], g.W[i] = 1, 2, 3
	}
	gm := field.Mesh3D{NX: 4, NY: 4, NZ: 4}
	for c := 0; c < gm.NumCells(); c++ {
		if NumericalCellContains3D(gm, c, g.U, g.V, g.W) {
			t.Fatalf("uniform field detected in cell %d", c)
		}
	}
}

func TestVertexPosRoundTrip(t *testing.T) {
	m2 := field.Mesh2D{NX: 7, NY: 5}
	for v := 0; v < m2.NumVertices(); v++ {
		i, j := m2.VertexPos(v)
		if j*7+i != v {
			t.Fatalf("2D VertexPos(%d) = (%d,%d)", v, i, j)
		}
	}
	m3 := field.Mesh3D{NX: 4, NY: 3, NZ: 5}
	for v := 0; v < m3.NumVertices(); v++ {
		i, j, k := m3.VertexPos(v)
		if (k*3+j)*4+i != v {
			t.Fatalf("3D VertexPos(%d) = (%d,%d,%d)", v, i, j, k)
		}
	}
}
