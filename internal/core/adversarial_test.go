package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cp"
	"repro/internal/field"
	"repro/internal/fixed"
	"repro/internal/quantizer"
)

// Adversarial preservation tests: tiny-integer fields sit exactly on the
// degeneracy set of the orientation predicates (zero determinants,
// duplicated vectors, components exactly zero), so every SoS tie-break,
// relaxation edge and speculation rollback path gets exercised. These
// configurations are where a sloppy strictness margin or an inconsistent
// tie-break would show up as FP/FN/FT.

func tinyField2D(seed int64, nx, ny int) *field.Field2D {
	rng := rand.New(rand.NewSource(seed))
	f := field.NewField2D(nx, ny)
	for i := range f.U {
		f.U[i] = float32(rng.Intn(7) - 3)
		f.V[i] = float32(rng.Intn(7) - 3)
	}
	return f
}

func tinyField3D(seed int64, n int) *field.Field3D {
	rng := rand.New(rand.NewSource(seed))
	f := field.NewField3D(n, n, n)
	for i := range f.U {
		f.U[i] = float32(rng.Intn(5) - 2)
		f.V[i] = float32(rng.Intn(5) - 2)
		f.W[i] = float32(rng.Intn(5) - 2)
	}
	return f
}

func TestAdversarialDegenerate2D(t *testing.T) {
	specs := []Speculation{NoSpec, ST1, ST2, ST3, ST4}
	for seed := int64(0); seed < 12; seed++ {
		f := tinyField2D(400+seed, 20, 16)
		tr, err := fixed.Fit(f.U, f.V)
		if err != nil {
			t.Fatal(err)
		}
		orig := cp.DetectField2D(f, tr)
		for _, spec := range specs {
			blob, err := CompressField2D(f, tr, Options{Tau: 1.5, Spec: spec})
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, spec, err)
			}
			dec, err := Decompress2D(blob)
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, spec, err)
			}
			rep := cp.Compare(orig, cp.DetectField2D(dec, tr))
			if !rep.Preserved() {
				t.Errorf("seed %d %v: degenerate field broke: %v (of %d)", seed, spec, rep, len(orig))
			}
		}
	}
}

func TestAdversarialDegenerate3D(t *testing.T) {
	specs := []Speculation{NoSpec, ST2, ST4}
	for seed := int64(0); seed < 6; seed++ {
		f := tinyField3D(500+seed, 8)
		tr, err := fixed.Fit(f.U, f.V, f.W)
		if err != nil {
			t.Fatal(err)
		}
		orig := cp.DetectField3D(f, tr)
		for _, spec := range specs {
			blob, err := CompressField3D(f, tr, Options{Tau: 1.5, Spec: spec})
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, spec, err)
			}
			dec, err := Decompress3D(blob)
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, spec, err)
			}
			rep := cp.Compare(orig, cp.DetectField3D(dec, tr))
			if !rep.Preserved() {
				t.Errorf("seed %d %v: degenerate 3D field broke: %v (of %d)", seed, spec, rep, len(orig))
			}
		}
	}
}

// TestAdversarialConstantComponent exercises the planar-data degeneracy
// (one component identically zero) that floods the SoS fallback.
func TestAdversarialConstantComponent(t *testing.T) {
	rng := rand.New(rand.NewSource(600))
	f := field.NewField3D(10, 10, 6)
	for i := range f.U {
		f.U[i] = float32(rng.Intn(9) - 4)
		f.V[i] = float32(rng.Intn(9) - 4)
		f.W[i] = 0 // planar field: every 4×4 orientation det vanishes
	}
	tr, err := fixed.Fit(f.U, f.V, f.W)
	if err != nil {
		t.Fatal(err)
	}
	orig := cp.DetectField3D(f, tr)
	for _, spec := range []Speculation{NoSpec, ST4} {
		blob, err := CompressField3D(f, tr, Options{Tau: 1.5, Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		dec, err := Decompress3D(blob)
		if err != nil {
			t.Fatal(err)
		}
		rep := cp.Compare(orig, cp.DetectField3D(dec, tr))
		if !rep.Preserved() {
			t.Errorf("%v: planar field broke: %v (of %d)", spec, rep, len(orig))
		}
	}
}

// TestAdversarialDistributedDegenerate puts the degenerate data on rank
// borders, where tie-break consistency across blocks is essential.
func TestAdversarialDistributedDegenerateBorders(t *testing.T) {
	f := tinyField2D(700, 24, 24)
	tr, err := fixed.Fit(f.U, f.V)
	if err != nil {
		t.Fatal(err)
	}
	orig := cp.DetectField2D(f, tr)

	// Manual 1×2 two-phase pair (reuses the wiring of TestTwoPhasePair).
	half := 12
	sub := func(x0, w int) ([]float32, []float32) {
		u := make([]float32, w*24)
		v := make([]float32, w*24)
		for j := 0; j < 24; j++ {
			copy(u[j*w:], f.U[j*24+x0:j*24+x0+w])
			copy(v[j*w:], f.V[j*24+x0:j*24+x0+w])
		}
		return u, v
	}
	u0, v0 := sub(0, half)
	u1, v1 := sub(half, half)
	opts := Options{Tau: 1.5, Spec: ST2}
	left, err := NewEncoder(Block{
		Dims: []int{half, 24}, Comps: [][]float32{u0, v0}, Transform: tr, Opts: opts,
		Global:   []int{24, 24},
		Neighbor: [6]bool{SideMaxX: true}, TwoPhase: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	right, err := NewEncoder(Block{
		Dims: []int{half, 24}, Comps: [][]float32{u1, v1}, Transform: tr, Opts: opts,
		Origin: []int{half, 0}, Global: []int{24, 24},
		Neighbor: [6]bool{SideMinX: true}, TwoPhase: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := left.SetGhostPlane(SideMaxX, right.BorderPlane(SideMinX)); err != nil {
		t.Fatal(err)
	}
	if err := right.SetGhostPlane(SideMinX, left.BorderPlane(SideMaxX)); err != nil {
		t.Fatal(err)
	}
	left.Prepare()
	right.Prepare()
	left.RunPhase1()
	right.RunPhase1()
	if err := left.SetGhostPlane(SideMaxX, right.BorderPlane(SideMinX)); err != nil {
		t.Fatal(err)
	}
	left.RunPhase2()
	right.RunPhase2()

	ld, rd := left.Decompressed(), right.Decompressed()
	lu2, lv2, ru2, rv2 := ld[0], ld[1], rd[0], rd[1]
	g := field.NewField2D(24, 24)
	for j := 0; j < 24; j++ {
		copy(g.U[j*24:], lu2[j*half:(j+1)*half])
		copy(g.V[j*24:], lv2[j*half:(j+1)*half])
		copy(g.U[j*24+half:], ru2[j*half:(j+1)*half])
		copy(g.V[j*24+half:], rv2[j*half:(j+1)*half])
	}
	rep := cp.Compare(orig, cp.DetectField2D(g, tr))
	if !rep.Preserved() {
		t.Fatalf("degenerate border data broke across ranks: %v (of %d)", rep, len(orig))
	}
}

// TestCompressRejectsNonFinite: a NaN or infinite input value is a typed
// *fixed.DomainError at the entry point — never a "successful" blob that
// decodes the NaN as 0, nor a misleading resolution error for +Inf.
func TestCompressRejectsNonFinite(t *testing.T) {
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1))} {
		f := tinyField2D(1, 9, 7)
		f.U[10] = bad
		_, _, err := Compress(f.Dims(), f.Components(), Options{Tau: 0.5})
		var de *fixed.DomainError
		if !errors.As(err, &de) || de.Component != 0 || de.Index != 10 {
			t.Errorf("%v: 2D Compress err = %v, want *fixed.DomainError at component 0 index 10", bad, err)
		}
		g := tinyField3D(2, 5)
		g.W[3] = bad
		_, _, err = Compress(g.Dims(), g.Components(), Options{Tau: 0.5})
		if !errors.As(err, &de) || de.Component != 2 || de.Index != 3 {
			t.Errorf("%v: 3D Compress err = %v, want *fixed.DomainError at component 2 index 3", bad, err)
		}
	}
}

// TestCompressRejectsCallerTransformOutOfRange pins the input-domain
// contract for transforms the caller built instead of fitting: on a
// 16×12 unit-magnitude field at τ = 0.01, FromShift(40) used to
// "succeed" with a max error of 2.53, FromShift(62) with 1.0, and a NaN
// through FromShift(20) decoded as 0. Each is now a *fixed.DomainError
// locating the first offending value, on the kernel's own region, its
// previous frame, and the lossless escape encoding alike. The range edge
// itself, |fixed| = MaxMagnitude, is still accepted.
func TestCompressRejectsCallerTransformOutOfRange(t *testing.T) {
	unit := func() *field.Field2D {
		f := field.NewField2D(16, 12)
		for i := range f.U {
			f.U[i] = float32(math.Cos(0.37 * float64(i)))
			f.V[i] = float32(math.Sin(0.23 * float64(i)))
		}
		return f
	}
	nan := unit()
	nan.V[29] = float32(math.NaN())
	for _, tc := range []struct {
		name      string
		f         *field.Field2D
		shift     int
		comp, idx int
	}{
		{"FromShift(40)", unit(), 40, 0, 0},
		{"FromShift(62)", unit(), 62, 0, 0},
		{"NaN through FromShift(20)", nan, 20, 1, 29},
	} {
		tr := fixed.FromShift(tc.shift)
		want := func(what string, err error) {
			t.Helper()
			var de *fixed.DomainError
			if !errors.As(err, &de) || de.Component != tc.comp || de.Index != tc.idx {
				t.Errorf("%s, %s: err = %v, want *fixed.DomainError at component %d index %d", tc.name, what, err, tc.comp, tc.idx)
			}
		}
		_, err := CompressField2D(tc.f, tr, Options{Tau: 0.01})
		want("CompressField2D", err)
		_, err = CompressLossless(Block{Dims: []int{tc.f.NX, tc.f.NY}, Comps: tc.f.Components(), Transform: tr})
		want("CompressLossless", err)
	}
	// A previous frame gets the same check as the frame it predicts.
	for _, bad := range []float32{float32(math.NaN()), 8} {
		cur, prev := unit(), unit()
		prev.V[29] = bad
		b := block2D(cur, fixed.FromShift(18), Options{Tau: 0.01})
		b.Prev = prev.Components()
		_, err := NewEncoder(b)
		var de *fixed.DomainError
		if !errors.As(err, &de) || de.Component != 1 || de.Index != 29 {
			t.Errorf("previous frame %v: err = %v, want *fixed.DomainError at component 1 index 29", bad, err)
		}
	}
	g := tinyField3D(4, 4)
	g.W[5] = float32(math.Inf(-1))
	_, err := CompressLossless(Block{Dims: []int{g.NX, g.NY, g.NZ}, Comps: g.Components(), Transform: fixed.FromShift(10)})
	var de *fixed.DomainError
	if !errors.As(err, &de) || de.Component != 2 || de.Index != 5 {
		t.Errorf("CompressLossless 3D: err = %v, want *fixed.DomainError at component 2 index 5", err)
	}
	// The edge: 2^20 fixed-point units are in range, one more is not.
	edge := field.NewField2D(3, 3)
	edge.U[4] = 1
	if _, err := CompressField2D(edge, fixed.FromShift(20), Options{Tau: 0.01}); err != nil {
		t.Errorf("|fixed| = MaxMagnitude: %v", err)
	}
	edge.U[4] = 1 + 1.0/(1<<19)
	if _, err := CompressField2D(edge, fixed.FromShift(20), Options{Tau: 0.01}); !errors.As(err, &de) || de.Index != 4 {
		t.Errorf("|fixed| = MaxMagnitude+2: err = %v, want *fixed.DomainError at index 4", err)
	}
}

// TestCompressRejectsNonFiniteTau: a NaN or infinite τ is a
// *fixed.DomainError naming the parameter. It used to "succeed" by
// storing every vertex losslessly, since τ·Scale wrapped in int64.
func TestCompressRejectsNonFiniteTau(t *testing.T) {
	f := smooth2D(5, 24, 20)
	g := tinyField3D(6, 6)
	for _, tau := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		var de *fixed.DomainError
		if _, _, err := Compress(f.Dims(), f.Components(), Options{Tau: tau}); !errors.As(err, &de) || de.Param != "tau" {
			t.Errorf("tau=%v: 2D Compress err = %v, want *fixed.DomainError for tau", tau, err)
		}
		if _, _, err := Compress(g.Dims(), g.Components(), Options{Tau: tau, Spec: ST2}); !errors.As(err, &de) || de.Param != "tau" {
			t.Errorf("tau=%v: 3D Compress err = %v, want *fixed.DomainError for tau", tau, err)
		}
	}
}

// TestCompressHugeTau: a finite τ whose fixed-point image overflows
// int64 saturates at fixed.MaxBound — a lossy run that still preserves
// every critical point — instead of wrapping to lossless storage.
func TestCompressHugeTau(t *testing.T) {
	if top := int64(fixed.MaxBound) << quantizer.MaxBoundUp; top <= 0 || 2*top+1 <= 0 {
		t.Fatalf("MaxBound·2^MaxBoundUp = %d overflows the quantizer's int64 arithmetic", top)
	}
	f := smooth2D(7, 32, 24)
	tr, err := fixed.Fit(f.U, f.V)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []Speculation{NoSpec, ST1, ST4} {
		blob, st, err := CompressBlock(block2D(f, tr, Options{Tau: 1e30, Spec: spec}))
		if err != nil {
			t.Fatalf("%v: %v", spec, err)
		}
		if st.Lossless == st.Vertices {
			t.Errorf("%v: all %d vertices stored losslessly under tau=1e30", spec, st.Vertices)
		}
		g, err := Decompress2D(blob)
		if err != nil {
			t.Fatalf("%v: %v", spec, err)
		}
		if rep := cp.Compare(cp.DetectField2D(f, tr), cp.DetectField2D(g, tr)); !rep.Preserved() {
			t.Errorf("%v: tau=1e30 broke preservation: %v", spec, rep)
		}
	}
}
