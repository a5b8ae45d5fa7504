package fixed

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFitEmpty(t *testing.T) {
	if _, err := Fit(nil); err != ErrEmpty {
		t.Fatalf("expected ErrEmpty, got %v", err)
	}
	if _, err := Fit(); err != ErrEmpty {
		t.Fatalf("expected ErrEmpty, got %v", err)
	}
}

func TestFitZeroField(t *testing.T) {
	tr, err := Fit([]float32{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Scale != 1 {
		t.Errorf("zero field scale = %v, want 1", tr.Scale)
	}
}

func TestFitMagnitudeContract(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		mag := math.Pow(10, float64(rng.Intn(9)-4)) // 1e-4 .. 1e4
		data := make([]float32, 100)
		for i := range data {
			data[i] = float32((rng.Float64()*2 - 1) * mag)
		}
		tr, err := Fit(data)
		if err != nil {
			t.Fatal(err)
		}
		fx := make([]int64, len(data))
		tr.ToFixed(data, fx)
		for _, v := range fx {
			if v > MaxMagnitude || v < -MaxMagnitude {
				t.Fatalf("fixed value %d exceeds contract (scale %v, mag %v)", v, tr.Scale, mag)
			}
		}
	}
}

func TestRoundTripError(t *testing.T) {
	f := func(vals []float32) bool {
		clean := vals[:0]
		for _, v := range vals {
			if !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0) {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		tr, err := Fit(clean)
		if err != nil {
			return false
		}
		fx := make([]int64, len(clean))
		back := make([]float32, len(clean))
		tr.ToFixed(clean, fx)
		tr.ToFloat(fx, back)
		for i := range clean {
			if math.Abs(float64(back[i])-float64(clean[i])) > 0.5/tr.Scale+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestToFloatExactness(t *testing.T) {
	// fixed/scale must be exactly representable: converting back to fixed
	// reproduces the same integers.
	rng := rand.New(rand.NewSource(8))
	data := make([]float32, 1000)
	for i := range data {
		data[i] = float32(rng.NormFloat64() * 3)
	}
	tr, _ := Fit(data)
	fx := make([]int64, len(data))
	fl := make([]float32, len(data))
	fx2 := make([]int64, len(data))
	tr.ToFixed(data, fx)
	tr.ToFloat(fx, fl)
	tr.ToFixed(fl, fx2)
	for i := range fx {
		if fx[i] != fx2[i] {
			t.Fatalf("fixed→float→fixed not identity at %d: %d vs %d", i, fx[i], fx2[i])
		}
	}
}

func TestBound(t *testing.T) {
	tr := Transform{Scale: 1024, Shift: 10}
	if got := tr.Bound(0.01); got != int64(math.Floor(0.01*1024))-1 {
		t.Errorf("Bound(0.01) = %d", got)
	}
	if got := tr.Bound(0); got != 0 {
		t.Errorf("Bound(0) = %d, want 0", got)
	}
	if got := tr.Bound(1e-9); got != 0 {
		t.Errorf("tiny bound should clamp to 0, got %d", got)
	}
}

// TestBoundSaturates: τ·Scale beyond int64 (and +Inf) saturates at
// MaxBound instead of wrapping to a negative int64 and clamping to 0,
// which silently meant lossless storage; NaN and -Inf give 0.
func TestBoundSaturates(t *testing.T) {
	tr := Transform{Scale: 1 << 19, Shift: 19}
	for _, tc := range []struct {
		tau  float64
		want int64
	}{
		{1e30, MaxBound},
		{math.Inf(1), MaxBound},
		{math.MaxFloat64, MaxBound},
		{float64(MaxBound) / (1 << 19), MaxBound - 1},
		{4 * float64(MaxBound) / (1 << 19), MaxBound},
		{math.NaN(), 0},
		{math.Inf(-1), 0},
		{-1, 0},
	} {
		if got := tr.Bound(tc.tau); got != tc.want {
			t.Errorf("Bound(%g) = %d, want %d", tc.tau, got, tc.want)
		}
	}
}

func TestCheckParam(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		err := CheckParam("tau", v)
		var de *DomainError
		if !errors.As(err, &de) || de.Param != "tau" || fmt.Sprint(de.Value) != fmt.Sprint(v) {
			t.Errorf("CheckParam(%v) = %v, want *DomainError for tau", v, err)
		}
	}
	for _, v := range []float64{0, -1, 1e30, math.MaxFloat64} {
		if err := CheckParam("tau", v); err != nil {
			t.Errorf("CheckParam(%v) = %v, want nil", v, err)
		}
	}
}

func TestBoundGuaranteesUserTau(t *testing.T) {
	// quantization error <= τ' units plus conversion rounding 0.5 units
	// must be <= τ in float units.
	for _, tau := range []float64{0.1, 0.01, 0.001} {
		data := []float32{0.9, -0.5, 0.3}
		tr, _ := Fit(data)
		taup := tr.Bound(tau)
		worst := (float64(taup) + 0.5) / tr.Scale
		if worst > tau {
			t.Errorf("τ=%v: worst-case error %v exceeds τ", tau, worst)
		}
	}
}

func TestFromShift(t *testing.T) {
	tr := FromShift(12)
	if tr.Scale != 4096 || tr.Shift != 12 {
		t.Errorf("FromShift(12) = %+v", tr)
	}
}

func TestFitTinyValuesCapped(t *testing.T) {
	tr, err := Fit([]float32{1e-30})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Shift > 40 {
		t.Errorf("shift should be capped at 40, got %d", tr.Shift)
	}
}

func TestPanicsOnLengthMismatch(t *testing.T) {
	tr := Transform{Scale: 1}
	func() {
		defer func() { recover() }()
		tr.ToFixed([]float32{1}, nil)
		t.Error("ToFixed should panic on mismatch")
	}()
	func() {
		defer func() { recover() }()
		tr.ToFloat([]int64{1}, nil)
		t.Error("ToFloat should panic on mismatch")
	}()
}

// TestFitRejectsNonFinite pins the input domain: a NaN or an infinity
// gets a *DomainError naming the first offending component and index,
// never a transform (NaN used to fit silently and decode as 0).
func TestFitRejectsNonFinite(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	for _, tc := range []struct {
		value     string // the offending value, as fmt prints it
		comps     [][]float32
		comp, idx int
	}{
		{"NaN", [][]float32{{1, 2}, {3, nan, nan}}, 1, 1},
		{"+Inf", [][]float32{{1, inf, 2}}, 0, 1},
		{"-Inf", [][]float32{{0}, {0}, {4, 5, -inf}}, 2, 2},
	} {
		_, err := Fit(tc.comps...)
		var de *DomainError
		if !errors.As(err, &de) {
			t.Fatalf("%s: err = %v, want *DomainError", tc.value, err)
		}
		if de.Component != tc.comp || de.Index != tc.idx || fmt.Sprint(de.Value) != tc.value {
			t.Errorf("%s: got %v at component %d index %d, want component %d index %d",
				tc.value, de.Value, de.Component, de.Index, tc.comp, tc.idx)
		}
	}
	if _, err := Fit([]float32{math.MaxFloat32, -math.MaxFloat32}); err != nil {
		t.Errorf("finite extremes rejected: %v", err)
	}
}
