package cp

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/field"
	"repro/internal/fixed"
)

// TestStreamDetect2D pins the windowed detector against the whole-field
// one bit for bit: same cells, same types, same positions, at every
// window size including the degenerate two-plane minimum.
func TestStreamDetect2D(t *testing.T) {
	f := datagen.Ocean(64, 48)
	tr, err := fixed.Fit(f.U, f.V)
	if err != nil {
		t.Fatal(err)
	}
	want := DetectField2D(f, tr)
	if len(want) == 0 {
		t.Fatal("test field has no critical points")
	}
	for _, window := range []int{0, 2, 3, 7, 48, 1000} {
		got, err := DetectSource(field.Mem2D(f), tr, window)
		if err != nil {
			t.Fatalf("window=%d: %v", window, err)
		}
		comparePoints(t, window, got, want)
	}
}

// TestStreamDetect3D is the 3D pin, windowed along Z.
func TestStreamDetect3D(t *testing.T) {
	f := datagen.Nek5000(20, 18, 24)
	tr, err := fixed.Fit(f.U, f.V, f.W)
	if err != nil {
		t.Fatal(err)
	}
	want := DetectField3D(f, tr)
	if len(want) == 0 {
		t.Fatal("test field has no critical points")
	}
	for _, window := range []int{0, 2, 5, 24} {
		got, err := DetectSource(field.Mem3D(f), tr, window)
		if err != nil {
			t.Fatalf("window=%d: %v", window, err)
		}
		comparePoints(t, window, got, want)
	}
}

// TestStreamDetectRejectsOtherDims: only 2D and 3D sources have a mesh.
func TestStreamDetectRejectsOtherDims(t *testing.T) {
	for _, dims := range [][]int{{8}, {4, 4, 4, 4}} {
		if _, err := DetectSource(field.NewMem(dims), fixed.FromShift(10), 0); err == nil {
			t.Errorf("dims %v: want an error", dims)
		}
	}
}

func comparePoints(t *testing.T, window int, got, want []Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("window=%d: %d points, want %d", window, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("window=%d point %d: %+v, want %+v", window, i, got[i], want[i])
		}
	}
}
