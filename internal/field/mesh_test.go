package field

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
)

func TestMesh2DCounts(t *testing.T) {
	m := Mesh2D{NX: 5, NY: 4}
	if got := m.NumVertices(); got != 20 {
		t.Errorf("NumVertices = %d", got)
	}
	if got := m.NumCells(); got != 2*4*3 {
		t.Errorf("NumCells = %d", got)
	}
}

func TestMesh2DCellVerticesValid(t *testing.T) {
	m := Mesh2D{NX: 7, NY: 5}
	for c := 0; c < m.NumCells(); c++ {
		vs := m.CellVertices(c)
		seen := map[int]bool{}
		for _, v := range vs {
			if v < 0 || v >= m.NumVertices() {
				t.Fatalf("cell %d vertex %d out of range", c, v)
			}
			if seen[v] {
				t.Fatalf("cell %d has duplicate vertex %d", c, v)
			}
			seen[v] = true
		}
	}
}

func TestMesh2DAdjacencyConsistency(t *testing.T) {
	// v ∈ CellVertices(c) ⇔ c ∈ VertexCells(v), and VertexCells lists
	// the cells in ascending order (the kernel's stars keep it).
	m := Mesh2D{NX: 6, NY: 5}
	fromCells := make(map[int][]int)
	for c := 0; c < m.NumCells(); c++ {
		for _, v := range m.CellVertices(c) {
			fromCells[v] = append(fromCells[v], c)
		}
	}
	for v := 0; v < m.NumVertices(); v++ {
		got := m.VertexCells(v, nil)
		if !sort.IntsAreSorted(got) {
			t.Fatalf("vertex %d: cells %v not ascending", v, got)
		}
		want := fromCells[v]
		sort.Ints(want)
		if len(got) != len(want) {
			t.Fatalf("vertex %d: %v vs %v", v, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("vertex %d: %v vs %v", v, got, want)
			}
		}
	}
}

func TestMesh2DInteriorVertexHas6Cells(t *testing.T) {
	m := Mesh2D{NX: 5, NY: 5}
	v := m.NX*2 + 2 // interior
	cells := m.VertexCells(v, nil)
	if len(cells) != MaxVertexCells2D {
		t.Errorf("interior vertex has %d cells, want 6", len(cells))
	}
}

func TestMesh3DCounts(t *testing.T) {
	m := Mesh3D{NX: 4, NY: 3, NZ: 5}
	if got := m.NumVertices(); got != 60 {
		t.Errorf("NumVertices = %d", got)
	}
	if got := m.NumCells(); got != 6*3*2*4 {
		t.Errorf("NumCells = %d", got)
	}
}

func TestMesh3DTetsPartitionCube(t *testing.T) {
	// The 6 tets must each have 4 distinct corners, all include 000 and
	// 111, and each corner of the cube must appear in at least one tet.
	cover := map[int]bool{}
	for t2, tet := range tetCorners {
		seen := map[int]bool{}
		for _, c := range tet {
			if seen[c] {
				t.Fatalf("tet %d duplicate corner %d", t2, c)
			}
			seen[c] = true
			cover[c] = true
		}
		if !seen[0] || !seen[7] {
			t.Fatalf("tet %d misses 000 or 111", t2)
		}
	}
	if len(cover) != 8 {
		t.Fatalf("corners covered: %d", len(cover))
	}
	// Corner incidence counts: 000 and 111 in all 6 tets; the other six
	// corners in 2 tets each (6*4 = 24 = 6+6+6*2).
	var cornerTets [8]int
	for _, tet := range tetCorners {
		for _, c := range tet {
			cornerTets[c]++
		}
	}
	if cornerTets[0] != 6 || cornerTets[7] != 6 {
		t.Errorf("corner 000/111 tet counts: %d, %d", cornerTets[0], cornerTets[7])
	}
	total := 0
	for _, n := range cornerTets {
		total += n
	}
	if total != 24 {
		t.Errorf("total incidences %d, want 24", total)
	}
}

func TestMesh3DAdjacencyConsistency(t *testing.T) {
	// As TestMesh2DAdjacencyConsistency.
	m := Mesh3D{NX: 4, NY: 4, NZ: 4}
	fromCells := make(map[int][]int)
	for c := 0; c < m.NumCells(); c++ {
		for _, v := range m.CellVertices(c) {
			fromCells[v] = append(fromCells[v], c)
		}
	}
	for v := 0; v < m.NumVertices(); v++ {
		got := m.VertexCells(v, nil)
		if !sort.IntsAreSorted(got) {
			t.Fatalf("vertex %d: cells %v not ascending", v, got)
		}
		want := fromCells[v]
		sort.Ints(want)
		if len(got) != len(want) {
			t.Fatalf("vertex %d: got %d cells, want %d", v, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("vertex %d mismatch", v)
			}
		}
	}
}

func TestMesh3DInteriorVertexHas24Cells(t *testing.T) {
	m := Mesh3D{NX: 5, NY: 5, NZ: 5}
	v := m.Idx3(2, 2, 2)
	cells := m.VertexCells(v, nil)
	if len(cells) != MaxVertexCells3D {
		t.Errorf("interior vertex has %d cells, want 24", len(cells))
	}
}

// Idx3 is a test helper.
func (m Mesh3D) Idx3(i, j, k int) int { return (k*m.NY+j)*m.NX + i }

func TestField2DAccessors(t *testing.T) {
	f := NewField2D(4, 3)
	f.U[f.Idx(2, 1)] = 7
	f.V[f.Idx(2, 1)] = -3
	u, v := f.At(2, 1)
	if u != 7 || v != -3 {
		t.Errorf("At = (%v,%v)", u, v)
	}
	g := f.Clone()
	g.U[0] = 99
	if f.U[0] == 99 {
		t.Error("Clone is shallow")
	}
	if len(f.Components()) != 2 {
		t.Error("Components")
	}
}

func TestField3DAccessors(t *testing.T) {
	f := NewField3D(3, 3, 3)
	f.W[f.Idx(1, 2, 2)] = 5
	_, _, w := f.At(1, 2, 2)
	if w != 5 {
		t.Errorf("At w = %v", w)
	}
	g := f.Clone()
	g.W[0] = 1
	if f.W[0] == 1 {
		t.Error("Clone is shallow")
	}
	if len(f.Components()) != 3 {
		t.Error("Components")
	}
}

func TestBilinearInterpolation(t *testing.T) {
	f := NewField2D(2, 2)
	f.U = []float32{0, 1, 0, 1} // u = x
	f.V = []float32{0, 0, 1, 1} // v = y
	u, v := f.Bilinear(0.25, 0.75)
	if u != 0.25 || v != 0.75 {
		t.Errorf("Bilinear = (%v,%v)", u, v)
	}
	// Clamping outside the domain.
	u, _ = f.Bilinear(-5, 0)
	if u != 0 {
		t.Errorf("clamped Bilinear = %v", u)
	}
}

func TestTrilinearInterpolation(t *testing.T) {
	f := NewField3D(2, 2, 2)
	for k := 0; k < 2; k++ {
		for j := 0; j < 2; j++ {
			for i := 0; i < 2; i++ {
				f.U[f.Idx(i, j, k)] = float32(i)
				f.V[f.Idx(i, j, k)] = float32(j)
				f.W[f.Idx(i, j, k)] = float32(k)
			}
		}
	}
	u, v, w := f.Trilinear(0.5, 0.25, 0.75)
	if u != 0.5 || v != 0.25 || w != 0.75 {
		t.Errorf("Trilinear = (%v,%v,%v)", u, v, w)
	}
}

func TestRawRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := NewField2D(8, 8)
	for i := range f.U {
		f.U[i] = rng.Float32()
		f.V[i] = rng.Float32()
	}
	var buf bytes.Buffer
	if err := WriteRaw(&buf, f.U, f.V); err != nil {
		t.Fatal(err)
	}
	g := NewField2D(8, 8)
	if err := ReadRaw(&buf, g.U, g.V); err != nil {
		t.Fatal(err)
	}
	for i := range f.U {
		if f.U[i] != g.U[i] || f.V[i] != g.V[i] {
			t.Fatal("raw round trip mismatch")
		}
	}
}

func TestReadRawShort(t *testing.T) {
	g := NewField2D(8, 8)
	if err := ReadRaw(bytes.NewReader([]byte{1, 2, 3}), g.U); err == nil {
		t.Fatal("expected error on short read")
	}
}
