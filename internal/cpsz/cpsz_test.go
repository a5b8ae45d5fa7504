package cpsz

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cp"
	"repro/internal/field"
)

func smooth2D(seed int64, nx, ny int) *field.Field2D {
	rng := rand.New(rand.NewSource(seed))
	f := field.NewField2D(nx, ny)
	type mode struct{ ax, ay, px, py, amp float64 }
	modes := make([]mode, 5)
	for i := range modes {
		modes[i] = mode{
			ax:  (rng.Float64() + 0.5) * 4 * math.Pi / float64(nx),
			ay:  (rng.Float64() + 0.5) * 4 * math.Pi / float64(ny),
			px:  rng.Float64() * 2 * math.Pi,
			py:  rng.Float64() * 2 * math.Pi,
			amp: rng.Float64() + 0.2,
		}
	}
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			var u, v float64
			for _, m := range modes {
				u += m.amp * math.Sin(m.ax*float64(i)+m.px) * math.Cos(m.ay*float64(j)+m.py)
				v += m.amp * math.Cos(m.ax*float64(i)+m.py) * math.Sin(m.ay*float64(j)+m.px)
			}
			f.U[f.Idx(i, j)] = float32(u)
			f.V[f.Idx(i, j)] = float32(v)
		}
	}
	return f
}

func smooth3D(seed int64, n int) *field.Field3D {
	rng := rand.New(rand.NewSource(seed))
	f := field.NewField3D(n, n, n)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				x := 2 * math.Pi * float64(i) / float64(n)
				y := 2 * math.Pi * float64(j) / float64(n)
				z := 2 * math.Pi * float64(k) / float64(n)
				idx := f.Idx(i, j, k)
				// Independent noise per component keeps the field free
				// of exact degeneracies (identical components), which
				// would make the *numerical* detection genuinely
				// ambiguous; see TestDegenerateFieldAmbiguity.
				f.U[idx] = float32(math.Sin(x)*math.Cos(y) + rng.NormFloat64()*1e-3)
				f.V[idx] = float32(math.Cos(y)*math.Sin(z) + rng.NormFloat64()*1e-3)
				f.W[idx] = float32(math.Sin(z)*math.Cos(x) + rng.NormFloat64()*1e-3)
			}
		}
	}
	return f
}

// degenerate3D shares one noise draw across components, producing many
// exactly-equal component pairs — vector configurations whose barycentric
// solution sits exactly on the μ = 0 boundary.
func degenerate3D(seed int64, n int) *field.Field3D {
	rng := rand.New(rand.NewSource(seed))
	f := field.NewField3D(n, n, n)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				x := 2 * math.Pi * float64(i) / float64(n)
				y := 2 * math.Pi * float64(j) / float64(n)
				z := 2 * math.Pi * float64(k) / float64(n)
				r := rng.NormFloat64() * 1e-3
				idx := f.Idx(i, j, k)
				f.U[idx] = float32(math.Sin(x)*math.Cos(y) + r)
				f.V[idx] = float32(math.Cos(y)*math.Sin(z) + r)
				f.W[idx] = float32(math.Sin(z)*math.Cos(x) + r)
			}
		}
	}
	return f
}

func TestOptionsValidate(t *testing.T) {
	if err := (Options{}).Validate(); err == nil {
		t.Error("zero Rel must fail")
	}
	if err := (Options{Rel: 1.5}).Validate(); err == nil {
		t.Error("Rel >= 1 must fail")
	}
	for _, rel := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := (Options{Rel: rel}).Validate(); err == nil {
			t.Errorf("Rel %v must fail", rel)
		}
	}
	if err := (Options{Rel: 0.1, Scheme: Coupled}).Validate(); err != nil {
		t.Error(err)
	}
	if Decoupled.String() != "decoupled" || Coupled.String() != "coupled" {
		t.Error("scheme names")
	}
}

func TestRelativeErrorBound2D(t *testing.T) {
	f := smooth2D(1, 40, 32)
	for _, scheme := range []Scheme{Decoupled, Coupled} {
		blob, err := Compress([]int{f.NX, f.NY}, f.Components(), Options{Rel: 0.1, Scheme: scheme})
		if err != nil {
			t.Fatal(err)
		}
		_, g, err := Decompress(blob)
		if err != nil {
			t.Fatal(err)
		}
		for i := range f.U {
			for _, pair := range [][2]float32{{f.U[i], g[0][i]}, {f.V[i], g[1][i]}} {
				if relErr(float64(pair[0]), float64(pair[1])) > 0.1*1.001 {
					t.Fatalf("%v: relative error violated at %d: %v vs %v", scheme, i, pair[0], pair[1])
				}
			}
		}
	}
}

func TestNumericalCPPreservation2D(t *testing.T) {
	// cpSZ's guarantee is against *numerical* extraction: every cell's
	// numerical detection outcome must be preserved.
	f := smooth2D(2, 40, 32)
	mesh := field.Mesh2D{NX: f.NX, NY: f.NY}
	for _, scheme := range []Scheme{Decoupled, Coupled} {
		blob, err := Compress([]int{f.NX, f.NY}, f.Components(), Options{Rel: 0.1, Scheme: scheme})
		if err != nil {
			t.Fatal(err)
		}
		_, g, err := Decompress(blob)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < mesh.NumCells(); c++ {
			before := cp.NumericalCellContains2D(mesh, c, f.U, f.V)
			after := cp.NumericalCellContains2D(mesh, c, g[0], g[1])
			if before != after {
				t.Errorf("%v: numerical detection flipped in cell %d", scheme, c)
			}
		}
	}
}

func TestCoupledBeatsDecoupledRatio(t *testing.T) {
	f := smooth2D(3, 64, 48)
	dec, err := Compress([]int{f.NX, f.NY}, f.Components(), Options{Rel: 0.1, Scheme: Decoupled})
	if err != nil {
		t.Fatal(err)
	}
	cou, err := Compress([]int{f.NX, f.NY}, f.Components(), Options{Rel: 0.1, Scheme: Coupled})
	if err != nil {
		t.Fatal(err)
	}
	if len(cou) > len(dec) {
		t.Errorf("coupled (%d bytes) should compress at least as well as decoupled (%d bytes)", len(cou), len(dec))
	}
}

func TestRoundTrip3DDecoupled(t *testing.T) {
	f := smooth3D(14, 8)
	blob, err := Compress([]int{f.NX, f.NY, f.NZ}, f.Components(), Options{Rel: 0.05, Scheme: Decoupled})
	if err != nil {
		t.Fatal(err)
	}
	dims, g, err := Decompress(blob)
	if err != nil || len(dims) != 3 {
		t.Fatalf("decode: dims %v, %v", dims, err)
	}
	for i := range f.U {
		if relErr(float64(f.U[i]), float64(g[0][i])) > 0.05*1.001 {
			t.Fatalf("relative error violated at %d", i)
		}
	}
}

func TestRoundTrip3D(t *testing.T) {
	f := smooth3D(4, 10)
	blob, err := Compress([]int{f.NX, f.NY, f.NZ}, f.Components(), Options{Rel: 0.05, Scheme: Coupled})
	if err != nil {
		t.Fatal(err)
	}
	dims, g, err := Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(dims) != 3 || dims[0] != 10 || len(g) != 3 {
		t.Fatalf("3D decode failed: dims %v", dims)
	}
	for i := range f.U {
		if relErr(float64(f.U[i]), float64(g[0][i])) > 0.05*1.001 {
			t.Fatalf("relative error violated at %d", i)
		}
	}
	mesh := field.Mesh3D{NX: f.NX, NY: f.NY, NZ: f.NZ}
	for c := 0; c < mesh.NumCells(); c++ {
		if cp.NumericalCellContains3D(mesh, c, f.U, f.V, f.W) !=
			cp.NumericalCellContains3D(mesh, c, g[0], g[1], g[2]) {
			t.Errorf("3D numerical detection flipped in cell %d", c)
		}
	}
}

// TestDegenerateFieldAmbiguity documents the limitation the paper calls
// out: on data with exact degeneracies, the numerical (floating-point)
// detection that cpSZ protects sits on decision boundaries, so a handful
// of cells may flip — which is why the proposed method uses the robust
// SoS test instead. The flips must stay rare.
func TestDegenerateFieldAmbiguity(t *testing.T) {
	f := degenerate3D(4, 10)
	mesh := field.Mesh3D{NX: f.NX, NY: f.NY, NZ: f.NZ}
	blob, err := Compress([]int{f.NX, f.NY, f.NZ}, f.Components(), Options{Rel: 0.05, Scheme: Coupled})
	if err != nil {
		t.Fatal(err)
	}
	_, g, err := Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	flips := 0
	for c := 0; c < mesh.NumCells(); c++ {
		if cp.NumericalCellContains3D(mesh, c, f.U, f.V, f.W) !=
			cp.NumericalCellContains3D(mesh, c, g[0], g[1], g[2]) {
			flips++
		}
	}
	if flips > 10 {
		t.Errorf("too many boundary flips even for a degenerate field: %d", flips)
	}
	t.Logf("degenerate-field boundary flips: %d of %d cells", flips, mesh.NumCells())
}

func TestZeroValuesEscape(t *testing.T) {
	f := field.NewField2D(8, 8)
	// Half zeros (like land-masked ocean data), half smooth.
	for j := 0; j < 8; j++ {
		for i := 4; i < 8; i++ {
			f.U[f.Idx(i, j)] = float32(i) * 0.1
			f.V[f.Idx(i, j)] = float32(j) * 0.1
		}
	}
	blob, err := Compress([]int{f.NX, f.NY}, f.Components(), Options{Rel: 0.1, Scheme: Coupled})
	if err != nil {
		t.Fatal(err)
	}
	_, g, err := Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.U {
		if f.U[i] == 0 && g[0][i] != 0 {
			t.Fatalf("zero value altered at %d", i)
		}
	}
}

func TestCompressRejectsBadShape(t *testing.T) {
	f := smooth2D(5, 8, 6)
	opts := Options{Rel: 0.1}
	for _, c := range []struct {
		name  string
		dims  []int
		comps [][]float32
	}{
		{"3 dims, 2 components", []int{8, 6, 1}, f.Components()},
		{"2 dims, 1 component", []int{8, 6}, f.Components()[:1]},
		{"short component", []int{8, 6}, [][]float32{f.U, f.V[:47]}},
		{"1 dim", []int{48}, f.Components()[:1]},
		{"zero extent", []int{0, 6}, [][]float32{nil, nil}},
	} {
		if _, err := Compress(c.dims, c.comps, opts); err == nil {
			t.Errorf("%s: want an error", c.name)
		}
	}
}

func TestDecompressCorrupt(t *testing.T) {
	if _, _, err := Decompress([]byte{9, 9}); err == nil {
		t.Error("garbage must fail")
	}
}

func TestSnapDelta(t *testing.T) {
	exp, b := snapDelta(0.1, 0.1)
	if exp != 0 || b != 0.1 {
		t.Errorf("snapDelta identity: %d %v", exp, b)
	}
	exp, b = snapDelta(0.06, 0.1)
	if exp != 1 || b != 0.05 {
		t.Errorf("snapDelta half: %d %v", exp, b)
	}
	if e, b := snapDelta(0, 0.1); e != 0xFF || b != 0 {
		t.Errorf("snapDelta lossless: %d %v", e, b)
	}
	if deltaFromExp(0xFF, 0.1) != 0 {
		t.Error("deltaFromExp sentinel")
	}
	if deltaFromExp(2, 0.1) != 0.025 {
		t.Error("deltaFromExp grid")
	}
}

func TestPsi2fPreservesNumericalDetection(t *testing.T) {
	// Property: perturbing the last vertex within psi2f keeps the plain
	// determinant signs (checked on generic float data).
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		u := [3]float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		v := [3]float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		psi := psi2f(u[0], v[0], u[1], v[1], u[2], v[2])
		if psi <= 0 || math.IsInf(psi, 1) {
			continue
		}
		det := u[0]*(v[1]-v[2]) - u[1]*(v[0]-v[2]) + u[2]*(v[0]-v[1])
		for k := 0; k < 5; k++ {
			du := (rng.Float64()*2 - 1) * psi
			dv := (rng.Float64()*2 - 1) * psi
			det2 := u[0]*(v[1]-(v[2]+dv)) - u[1]*(v[0]-(v[2]+dv)) + (u[2]+du)*(v[0]-v[1])
			if det != 0 && det2 != 0 && (det > 0) != (det2 > 0) {
				t.Fatalf("psi2f failed to preserve orientation: psi=%v", psi)
			}
		}
	}
}

func BenchmarkCompressCoupled2D(b *testing.B) {
	f := smooth2D(8, 64, 64)
	b.SetBytes(int64(len(f.U)+len(f.V)) * 4)
	for i := 0; i < b.N; i++ {
		if _, err := Compress([]int{f.NX, f.NY}, f.Components(), Options{Rel: 0.1, Scheme: Coupled}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompress2D(b *testing.B) {
	f := smooth2D(9, 64, 64)
	blob, _ := Compress([]int{f.NX, f.NY}, f.Components(), Options{Rel: 0.1, Scheme: Coupled})
	b.SetBytes(int64(len(f.U)+len(f.V)) * 4)
	for i := 0; i < b.N; i++ {
		if _, _, err := Decompress(blob); err != nil {
			b.Fatal(err)
		}
	}
}
