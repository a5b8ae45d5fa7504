package predictor

import (
	"math/rand"
	"testing"
)

// TestLorenzo1D: along one row (ny = 1, j = k = 0) the predictor is the
// previous value, and 0 at the row start.
func TestLorenzo1D(t *testing.T) {
	d := []int64{5, 7, 9}
	if Lorenzo(d, 3, 1, 0, 0, 0, 0) != 0 {
		t.Error("boundary should predict 0")
	}
	if Lorenzo(d, 3, 1, 2, 0, 0, 0) != 7 {
		t.Error("should predict previous value")
	}
}

func TestLorenzo2DExactOnPlanes(t *testing.T) {
	// A bilinear ramp v = a + b*i + c*j is predicted exactly away from the
	// boundary.
	nx, ny := 8, 6
	d := make([]int64, nx*ny)
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			d[j*nx+i] = 3 + 2*int64(i) - 5*int64(j)
		}
	}
	for j := 1; j < ny; j++ {
		for i := 1; i < nx; i++ {
			if got := Lorenzo(d, nx, ny, i, j, 0, 0); got != d[j*nx+i] {
				t.Fatalf("interior prediction (%d,%d) = %d, want %d", i, j, got, d[j*nx+i])
			}
		}
	}
}

func TestLorenzo2DBoundaries(t *testing.T) {
	nx := 4
	d := []int64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
	}
	if got := Lorenzo(d, nx, 3, 0, 0, 0, 0); got != 0 {
		t.Errorf("(0,0) = %d", got)
	}
	if got := Lorenzo(d, nx, 3, 2, 0, 0, 0); got != 2 {
		t.Errorf("(2,0) = %d", got)
	}
	if got := Lorenzo(d, nx, 3, 0, 1, 0, 0); got != 1 {
		t.Errorf("(0,1) = %d", got)
	}
	if got := Lorenzo(d, nx, 3, 1, 1, 0, 0); got != 2+5-1 {
		t.Errorf("(1,1) = %d", got)
	}
	// A piece starting at row 1 (lo = 4) predicts its first row as a
	// first row, and its second row from the first.
	if got := Lorenzo(d, nx, 3, 0, 1, 0, 4); got != 0 {
		t.Errorf("piece corner (0,1) = %d", got)
	}
	if got := Lorenzo(d, nx, 3, 2, 1, 0, 4); got != 6 {
		t.Errorf("piece row (2,1) = %d", got)
	}
	if got := Lorenzo(d, nx, 3, 2, 2, 0, 4); got != 10+7-6 {
		t.Errorf("(2,2) above the piece start = %d", got)
	}
}

func TestLorenzo3DExactOnTrilinearRamps(t *testing.T) {
	nx, ny, nz := 5, 4, 3
	d := make([]int64, nx*ny*nz)
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				d[(k*ny+j)*nx+i] = 1 + 2*int64(i) + 3*int64(j) - 4*int64(k)
			}
		}
	}
	for k := 1; k < nz; k++ {
		for j := 1; j < ny; j++ {
			for i := 1; i < nx; i++ {
				if got := Lorenzo(d, nx, ny, i, j, k, 0); got != d[(k*ny+j)*nx+i] {
					t.Fatalf("interior 3D prediction (%d,%d,%d) wrong", i, j, k)
				}
			}
		}
	}
}

func TestLorenzo3DBoundaryFallbacks(t *testing.T) {
	nx, ny := 3, 3
	d := make([]int64, 27)
	rng := rand.New(rand.NewSource(50))
	for i := range d {
		d[i] = rng.Int63n(100)
	}
	// Face (i=0): must reduce to 2D Lorenzo in (j,k).
	got := Lorenzo(d, nx, ny, 0, 1, 1, 0)
	want := d[(1*ny+0)*nx+0] + d[(0*ny+1)*nx+0] - d[(0*ny+0)*nx+0]
	if got != want {
		t.Errorf("face fallback = %d, want %d", got, want)
	}
	// Edge (i=0, j=0): reduces to 1D in k.
	if got := Lorenzo(d, nx, ny, 0, 0, 2, 0); got != d[(1*ny+0)*nx+0] {
		t.Errorf("edge fallback = %d", got)
	}
	// Origin.
	if got := Lorenzo(d, nx, ny, 0, 0, 0, 0); got != 0 {
		t.Errorf("origin = %d", got)
	}
	// The first plane of a piece starting at k = 1 predicts like the
	// k = 0 plane, in 2D over (i, j); the plane above it is 3D again.
	lo := nx * ny
	want = d[(1*ny+1)*nx+0] + d[(1*ny+0)*nx+1] - d[(1*ny+0)*nx+0]
	if got := Lorenzo(d, nx, ny, 1, 1, 1, lo); got != want {
		t.Errorf("piece first plane = %d, want %d", got, want)
	}
	if got, want := Lorenzo(d, nx, ny, 1, 1, 2, lo), Lorenzo(d, nx, ny, 1, 1, 2, 0); got != want {
		t.Errorf("plane above the piece start = %d, want %d", got, want)
	}
}
