package baselines

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/field"
	"repro/internal/telemetry"
)

func smooth2D(seed int64, nx, ny int) *field.Field2D {
	rng := rand.New(rand.NewSource(seed))
	f := field.NewField2D(nx, ny)
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			x := 4 * math.Pi * float64(i) / float64(nx)
			y := 4 * math.Pi * float64(j) / float64(ny)
			idx := f.Idx(i, j)
			f.U[idx] = float32(math.Sin(x)*math.Cos(y) + rng.NormFloat64()*1e-3)
			f.V[idx] = float32(math.Cos(x)*math.Sin(y) + rng.NormFloat64()*1e-3)
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
				f.U[idx] = float32(math.Sin(x)*math.Cos(y) + rng.NormFloat64()*1e-3)
				f.V[idx] = float32(math.Cos(y)*math.Sin(z) + rng.NormFloat64()*1e-3)
				f.W[idx] = float32(math.Sin(z)*math.Cos(x) + rng.NormFloat64()*1e-3)
			}
		}
	}
	return f
}

// dims2 and dims3 give a test field's dims in the Compress form.
func dims2(f *field.Field2D) []int { return []int{f.NX, f.NY} }
func dims3(f *field.Field3D) []int { return []int{f.NX, f.NY, f.NZ} }

// maxErr is the largest pointwise difference over all components.
func maxErr(a, b [][]float32) float64 {
	m := 0.0
	for c := range a {
		for i := range a[c] {
			m = math.Max(m, math.Abs(float64(a[c][i])-float64(b[c][i])))
		}
	}
	return m
}

func TestSZLikeRoundTrip2D(t *testing.T) {
	f := smooth2D(1, 40, 32)
	const abs = 0.01
	blob, err := SZLike{Abs: abs}.Compress(dims2(f), f.Components())
	if err != nil {
		t.Fatal(err)
	}
	_, g, err := SZLike{}.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	if e := maxErr(f.Components(), g); e > abs {
		t.Errorf("error %v exceeds bound %v", e, abs)
	}
	if len(blob) >= 4*2*len(f.U) {
		t.Error("no compression achieved")
	}
}

func TestSZLikeRoundTrip3D(t *testing.T) {
	f := smooth3D(2, 12)
	const abs = 0.02
	blob, err := SZLike{Abs: abs}.Compress(dims3(f), f.Components())
	if err != nil {
		t.Fatal(err)
	}
	_, g, err := SZLike{}.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.U {
		for _, p := range [][2]float32{{f.U[i], g[0][i]}, {f.V[i], g[1][i]}, {f.W[i], g[2][i]}} {
			if math.Abs(float64(p[0])-float64(p[1])) > abs {
				t.Fatalf("error bound violated at %d", i)
			}
		}
	}
}

func TestSZLikeRejectsBadBound(t *testing.T) {
	f := smooth2D(3, 8, 8)
	if _, err := (SZLike{}).Compress(dims2(f), f.Components()); err == nil {
		t.Error("zero bound must be rejected")
	}
}

func TestFPZIPLikeRoundTrip2D(t *testing.T) {
	f := smooth2D(4, 40, 32)
	for _, prec := range []int{12, 16, 24} {
		blob, err := FPZIPLike{Precision: prec}.Compress(dims2(f), f.Components())
		if err != nil {
			t.Fatal(err)
		}
		_, g, err := FPZIPLike{}.Decompress(blob)
		if err != nil {
			t.Fatal(err)
		}
		// Precision truncation gives a relative-like error of roughly
		// 2^-(prec-9) of the magnitude.
		relBound := math.Pow(2, float64(-(prec - 10)))
		for i := range f.U {
			d := math.Abs(float64(f.U[i]) - float64(g[0][i]))
			lim := relBound*math.Abs(float64(f.U[i])) + 1e-6
			if d > lim {
				t.Fatalf("prec %d: error %v exceeds %v at %d (val %v)", prec, d, lim, i, f.U[i])
			}
		}
	}
}

func TestFPZIPLikeLossless32(t *testing.T) {
	f := smooth2D(5, 16, 16)
	blob, err := FPZIPLike{Precision: 32}.Compress(dims2(f), f.Components())
	if err != nil {
		t.Fatal(err)
	}
	_, g, err := FPZIPLike{}.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.U {
		if f.U[i] != g[0][i] || f.V[i] != g[1][i] {
			t.Fatalf("precision 32 must be lossless (at %d)", i)
		}
	}
}

func TestFPZIPLikeHigherPrecisionBiggerOutput(t *testing.T) {
	f := smooth2D(6, 48, 48)
	a, _ := FPZIPLike{Precision: 10}.Compress(dims2(f), f.Components())
	b, _ := FPZIPLike{Precision: 24}.Compress(dims2(f), f.Components())
	if len(a) >= len(b) {
		t.Errorf("P10 (%d) should be smaller than P24 (%d)", len(a), len(b))
	}
}

func TestFPZIPLikeRoundTrip3D(t *testing.T) {
	f := smooth3D(7, 10)
	blob, err := FPZIPLike{Precision: 16}.Compress(dims3(f), f.Components())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := (FPZIPLike{}).Decompress(blob); err != nil {
		t.Fatal(err)
	}
}

func TestFPZIPLikeRejectsBadPrecision(t *testing.T) {
	f := smooth2D(8, 8, 8)
	for _, p := range []int{0, 33, -1} {
		if _, err := (FPZIPLike{Precision: p}).Compress(dims2(f), f.Components()); err == nil {
			t.Errorf("precision %d must be rejected", p)
		}
	}
}

func TestMonotonicMapping(t *testing.T) {
	vals := []float32{-100, -1, -0.001, 0, 0.001, 1, 100}
	for i := 1; i < len(vals); i++ {
		if monotonic(vals[i-1]) >= monotonic(vals[i]) {
			t.Errorf("monotonic mapping not increasing at %v", vals[i])
		}
	}
	for _, v := range vals {
		if unmonotonic(monotonic(v)) != v {
			t.Errorf("unmonotonic(monotonic(%v)) != %v", v, v)
		}
	}
}

func TestZFPLikeAccuracyMode2D(t *testing.T) {
	f := smooth2D(9, 40, 32)
	const tol = 0.01
	blob, err := ZFPLike{Accuracy: tol}.Compress(dims2(f), f.Components())
	if err != nil {
		t.Fatal(err)
	}
	_, g, err := ZFPLike{}.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	if e := maxErr(f.Components(), g); e > 4*tol {
		t.Errorf("accuracy-mode error %v far exceeds tolerance %v", e, tol)
	}
}

func TestZFPLikePrecisionMode2D(t *testing.T) {
	f := smooth2D(10, 40, 32)
	lo, _ := ZFPLike{Precision: 6}.Compress(dims2(f), f.Components())
	hi, _ := ZFPLike{Precision: 20}.Compress(dims2(f), f.Components())
	if len(lo) >= len(hi) {
		t.Errorf("P6 (%d bytes) should be smaller than P20 (%d bytes)", len(lo), len(hi))
	}
	_, g, err := ZFPLike{}.Decompress(hi)
	if err != nil {
		t.Fatal(err)
	}
	if e := maxErr(f.Components(), g); e > 1e-3 {
		t.Errorf("high precision error %v too large", e)
	}
}

func TestZFPLikeRoundTrip3D(t *testing.T) {
	f := smooth3D(11, 12)
	blob, err := ZFPLike{Accuracy: 0.02}.Compress(dims3(f), f.Components())
	if err != nil {
		t.Fatal(err)
	}
	_, g, err := ZFPLike{}.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for i := range f.U {
		worst = math.Max(worst, math.Abs(float64(f.U[i])-float64(g[0][i])))
	}
	if worst > 8*0.02 {
		t.Errorf("3D accuracy error %v too large", worst)
	}
}

func TestZFPLikeRejectsBadPrecision(t *testing.T) {
	f := smooth2D(12, 8, 8)
	if _, err := (ZFPLike{Precision: 0}).Compress(dims2(f), f.Components()); err == nil {
		t.Error("precision 0 must be rejected")
	}
}

func TestLiftRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		n := 16
		if trial%2 == 1 {
			n = 64
		}
		ndim := 2
		if n == 64 {
			ndim = 3
		}
		block := make([]int64, n)
		orig := make([]int64, n)
		for i := range block {
			block[i] = rng.Int63n(1<<31) - 1<<30
			orig[i] = block[i]
		}
		forwardLift(block, 4, ndim)
		inverseLift(block, 4, ndim)
		for i := range block {
			if block[i] != orig[i] {
				t.Fatalf("lift not invertible at %d (ndim %d)", i, ndim)
			}
		}
	}
}

func TestSLiftPairRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 10000; trial++ {
		a := rng.Int63n(1<<40) - 1<<39
		b := rng.Int63n(1<<40) - 1<<39
		s, d := sLift(a, b)
		a2, b2 := sUnlift(s, d)
		if a2 != a || b2 != b {
			t.Fatalf("sLift round trip failed: %d %d", a, b)
		}
	}
}

func TestNonMultipleOfFourDims(t *testing.T) {
	f := smooth2D(15, 39, 31) // not multiples of 4
	blob, err := ZFPLike{Accuracy: 0.01}.Compress(dims2(f), f.Components())
	if err != nil {
		t.Fatal(err)
	}
	dims, g, err := ZFPLike{}.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(dims) != 2 || dims[0] != 39 || dims[1] != 31 || len(g) != 2 || len(g[0]) != 39*31 {
		t.Fatalf("dims %v, %d components", dims, len(g))
	}
}

func TestDecompressTypeMismatch(t *testing.T) {
	f := smooth2D(16, 16, 16)
	blob, _ := SZLike{Abs: 0.01}.Compress(dims2(f), f.Components())
	if dims, _, err := (SZLike{}).Decompress(blob); err != nil || len(dims) != 2 {
		t.Errorf("2D blob must decode as 2D: dims %v, %v", dims, err)
	}
	if _, _, err := (ZFPLike{}).Decompress(blob); err == nil {
		t.Error("SZ blob as ZFP must fail")
	}
	if _, _, err := (FPZIPLike{}).Decompress(blob); err == nil {
		t.Error("SZ blob as FPZIP must fail")
	}
}

func BenchmarkSZLike2D(b *testing.B) {
	f := smooth2D(17, 64, 64)
	b.SetBytes(int64(len(f.U)+len(f.V)) * 4)
	for i := 0; i < b.N; i++ {
		if _, err := (SZLike{Abs: 0.01}).Compress(dims2(f), f.Components()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkZFPLike2D(b *testing.B) {
	f := smooth2D(18, 64, 64)
	b.SetBytes(int64(len(f.U)+len(f.V)) * 4)
	for i := 0; i < b.N; i++ {
		if _, err := (ZFPLike{Accuracy: 0.01}).Compress(dims2(f), f.Components()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFPZIPLike2D(b *testing.B) {
	f := smooth2D(19, 64, 64)
	b.SetBytes(int64(len(f.U)+len(f.V)) * 4)
	for i := 0; i < b.N; i++ {
		if _, err := (FPZIPLike{Precision: 16}).Compress(dims2(f), f.Components()); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSpanNames checks that each call's span name carries the field's
// dimensionality: from len(dims) on compress, from the stream header on
// decompress.
func TestSpanNames(t *testing.T) {
	f2 := smooth2D(21, 12, 10)
	f3 := smooth3D(22, 6)
	tel := telemetry.New()
	for _, c := range []struct {
		name  string
		codec Codec
	}{
		{"sz", SZLike{Abs: 0.01, Tel: tel}},
		{"zfp", ZFPLike{Precision: 12, Tel: tel}},
		{"fpzip", FPZIPLike{Precision: 16, Tel: tel}},
	} {
		var want []string
		for _, fld := range []struct {
			dims  []int
			comps [][]float32
		}{{dims2(f2), f2.Components()}, {dims3(f3), f3.Components()}} {
			blob, err := c.codec.Compress(fld.dims, fld.comps)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := c.codec.Decompress(blob); err != nil {
				t.Fatal(err)
			}
			nd := fmt.Sprintf("%dd", len(fld.dims))
			want = append(want, "baselines."+c.name+".compress"+nd, "baselines."+c.name+".decompress"+nd)
		}
		spans := tel.Snapshot().Spans
		got := make([]string, 0, len(want))
		for _, s := range spans[len(spans)-len(want):] {
			got = append(got, s.Name)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s spans = %v, want %v", c.name, got, want)
		}
	}
}
