package isosurface

import (
	"math"
	"math/rand"
	"testing"
)

func synthetic(nx, ny, nz int, seed int64) *Field {
	rng := rand.New(rand.NewSource(seed))
	f := NewField(nx, ny, nz)
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				x := 4 * math.Pi * float64(i) / float64(nx)
				y := 4 * math.Pi * float64(j) / float64(ny)
				z := 2 * math.Pi * float64(k) / float64(max(nz, 1))
				f.Data[(k*ny+j)*nx+i] = float32(math.Sin(x)*math.Cos(y)*math.Cos(z) +
					0.3*math.Sin(2*x+y) + rng.NormFloat64()*1e-3)
			}
		}
	}
	return f
}

func TestOptionsValidate(t *testing.T) {
	if err := (Options{}).Validate(); err == nil {
		t.Error("zero options must fail")
	}
	if err := (Options{Tau: 0.1}).Validate(); err == nil {
		t.Error("missing isovalues must fail")
	}
	if err := (Options{Tau: 0.1, Isovalues: []float64{0}}).Validate(); err != nil {
		t.Error(err)
	}
}

func TestRoundTripErrorBound(t *testing.T) {
	f := synthetic(48, 40, 1, 1)
	const tau = 0.02
	blob, err := Compress(f, Options{Tau: tau, Isovalues: []float64{0}})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Data {
		if math.Abs(float64(f.Data[i])-float64(g.Data[i])) > tau {
			t.Fatalf("error bound violated at %d", i)
		}
	}
	if len(blob) >= 4*len(f.Data) {
		t.Error("no compression achieved")
	}
}

func TestIsosurfaceTopologyPreserved2D(t *testing.T) {
	f := synthetic(64, 48, 1, 2)
	isos := []float64{-0.5, 0, 0.7}
	blob, err := Compress(f, Options{Tau: 0.1, Isovalues: isos})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	for _, iso := range isos {
		a := CellCases(f, iso)
		b := CellCases(g, iso)
		for c := range a {
			if a[c] != b[c] {
				t.Fatalf("marching-squares case changed in cell %d for isovalue %v: %04b -> %04b",
					c, iso, a[c], b[c])
			}
		}
	}
}

func TestIsosurfaceTopologyPreserved3D(t *testing.T) {
	f := synthetic(20, 18, 16, 3)
	isos := []float64{0, 0.4}
	blob, err := Compress(f, Options{Tau: 0.1, Isovalues: isos})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	for _, iso := range isos {
		a := CellCases(f, iso)
		b := CellCases(g, iso)
		for c := range a {
			if a[c] != b[c] {
				t.Fatalf("marching-cubes case changed in cell %d for isovalue %v", c, iso)
			}
		}
	}
}

func TestSideOfPreservedPropertywise(t *testing.T) {
	// Direct predicate check on every sample, for every isovalue.
	f := synthetic(48, 40, 1, 4)
	isos := []float64{-0.3, 0.1}
	blob, err := Compress(f, Options{Tau: 0.25, Isovalues: isos})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	for _, iso := range isos {
		for i := range f.Data {
			before := sideFloat(f.Data[i], iso)
			after := sideFloat(g.Data[i], iso)
			// Samples exactly on the level are stored losslessly, so 0
			// maps to 0; otherwise strict sides must match.
			if before != after {
				t.Fatalf("sample %d crossed isovalue %v: %v -> %v (%d vs %d)",
					i, iso, f.Data[i], g.Data[i], before, after)
			}
		}
	}
}

func sideFloat(v float32, iso float64) int {
	switch {
	case float64(v) < iso:
		return -1
	case float64(v) > iso:
		return 1
	default:
		return 0
	}
}

func TestMoreIsovaluesLowerRatio(t *testing.T) {
	f := synthetic(64, 48, 1, 5)
	one, err := Compress(f, Options{Tau: 0.1, Isovalues: []float64{0}})
	if err != nil {
		t.Fatal(err)
	}
	many, err := Compress(f, Options{Tau: 0.1, Isovalues: []float64{-0.6, -0.3, 0, 0.3, 0.6}})
	if err != nil {
		t.Fatal(err)
	}
	if len(many) < len(one) {
		t.Errorf("more preserved levels should cost bytes: %d vs %d", len(one), len(many))
	}
}

func TestNearestDistance(t *testing.T) {
	isos := []int64{-10, 0, 25}
	cases := map[int64]int64{-10: 0, -7: 3, 5: 5, 13: 12, 25: 0, 100: 75, -100: 90}
	for v, want := range cases {
		if got := nearestDistance(v, isos); got != want {
			t.Errorf("nearestDistance(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestDecompressCorrupt(t *testing.T) {
	if _, err := Decompress([]byte{1, 2, 3}); err == nil {
		t.Error("garbage must fail")
	}
}

func TestFieldString(t *testing.T) {
	if NewField(4, 5, 1).String() != "scalar field 4x5x1" {
		t.Error("String format")
	}
}

func BenchmarkCompress(b *testing.B) {
	f := synthetic(64, 64, 1, 6)
	b.SetBytes(int64(4 * len(f.Data)))
	for i := 0; i < b.N; i++ {
		if _, err := Compress(f, Options{Tau: 0.05, Isovalues: []float64{0}}); err != nil {
			b.Fatal(err)
		}
	}
}
