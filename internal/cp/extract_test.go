package cp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/field"
	"repro/internal/fixed"
)

// TestExtractPositionAccuracy2D places a linear zero at random positions
// and checks the extracted position against the ground truth: for linear
// fields the barycentric solve is exact up to fixed-point rounding.
func TestExtractPositionAccuracy2D(t *testing.T) {
	rng := rand.New(rand.NewSource(130))
	for trial := 0; trial < 40; trial++ {
		cx := 1 + rng.Float64()*5
		cy := 1 + rng.Float64()*5
		ax := rng.Float64() + 0.5
		ay := rng.Float64() + 0.5
		if rng.Intn(2) == 0 {
			ay = -ay // mix saddles in
		}
		f := field.NewField2D(8, 8)
		for j := 0; j < 8; j++ {
			for i := 0; i < 8; i++ {
				idx := f.Idx(i, j)
				f.U[idx] = float32(ax * (float64(i) - cx))
				f.V[idx] = float32(ay * (float64(j) - cy))
			}
		}
		tr, err := fixed.Fit(f.U, f.V)
		if err != nil {
			t.Fatal(err)
		}
		pts := DetectField2D(f, tr)
		if len(pts) != 1 {
			t.Fatalf("trial %d: %d points", trial, len(pts))
		}
		if math.Abs(pts[0].Pos[0]-cx) > 0.01 || math.Abs(pts[0].Pos[1]-cy) > 0.01 {
			t.Errorf("trial %d: extracted (%v,%v), want (%v,%v)",
				trial, pts[0].Pos[0], pts[0].Pos[1], cx, cy)
		}
	}
}

// TestExtractPositionAccuracy3D does the same for tetrahedral extraction.
func TestExtractPositionAccuracy3D(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for trial := 0; trial < 20; trial++ {
		c := [3]float64{
			1 + rng.Float64()*4,
			1 + rng.Float64()*4,
			1 + rng.Float64()*4,
		}
		f := field.NewField3D(7, 7, 7)
		for k := 0; k < 7; k++ {
			for j := 0; j < 7; j++ {
				for i := 0; i < 7; i++ {
					idx := f.Idx(i, j, k)
					f.U[idx] = float32(float64(i) - c[0])
					f.V[idx] = float32(float64(j) - c[1])
					f.W[idx] = float32(float64(k) - c[2])
				}
			}
		}
		tr, err := fixed.Fit(f.U, f.V, f.W)
		if err != nil {
			t.Fatal(err)
		}
		pts := DetectField3D(f, tr)
		if len(pts) != 1 {
			t.Fatalf("trial %d: %d points", trial, len(pts))
		}
		for a := 0; a < 3; a++ {
			if math.Abs(pts[0].Pos[a]-c[a]) > 0.01 {
				t.Errorf("trial %d axis %d: extracted %v, want %v", trial, a, pts[0].Pos[a], c[a])
			}
		}
	}
}

// TestDetectCellsParallelMatchesSerial forces the concurrent detection
// path on a large mesh and cross-checks against per-cell queries.
func TestDetectCellsParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(132))
	nx, ny := 128, 80 // > 2*minChunk cells to engage the parallel path
	f := field.NewField2D(nx, ny)
	for i := range f.U {
		f.U[i] = float32(rng.NormFloat64())
		f.V[i] = float32(rng.NormFloat64())
	}
	tr, _ := fixed.Fit(f.U, f.V)
	u := make([]int64, len(f.U))
	v := make([]int64, len(f.V))
	tr.ToFixed(f.U, u)
	tr.ToFixed(f.V, v)
	d := &Detector{Dims: []int{nx, ny}, Comps: [][]int64{u, v}}
	got := d.DetectCells()
	idx := 0
	for c := 0; c < numCells(d); c++ {
		want := cellContains(d, c)
		inList := idx < len(got) && got[idx] == c
		if inList {
			idx++
		}
		if want != inList {
			t.Fatalf("cell %d: contains=%v inList=%v", c, want, inList)
		}
	}
	if idx != len(got) {
		t.Fatalf("list has %d extra entries", len(got)-idx)
	}
}
