package quantizer

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQuantizeErrorBound(t *testing.T) {
	f := func(value, pred int32, xiRaw uint16) bool {
		xi := int64(xiRaw % 1000)
		code, recon, ok := Quantize(int64(value), int64(pred), xi)
		if !ok {
			return true // escaped to literal, nothing to check
		}
		err := recon - int64(value)
		if err < 0 {
			err = -err
		}
		if err > xi {
			return false
		}
		// Decoder agreement.
		return Reconstruct(code, int64(pred), xi) == recon
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizeLossless(t *testing.T) {
	// xi = 0 must reproduce the value exactly.
	for _, d := range []int64{0, 1, -1, 100, -100, Radius - 1, -(Radius - 1)} {
		code, recon, ok := Quantize(1000+d, 1000, 0)
		if !ok {
			t.Fatalf("diff %d should be representable", d)
		}
		if recon != 1000+d || code != d {
			t.Fatalf("lossless quantization wrong for diff %d: code=%d recon=%d", d, code, recon)
		}
	}
}

func TestQuantizeEscape(t *testing.T) {
	// Residual too large for the code alphabet → literal escape.
	_, recon, ok := Quantize(1<<20, 0, 0)
	if ok {
		t.Fatal("expected escape")
	}
	if recon != 1<<20 {
		t.Fatal("escape must return the exact value")
	}
}

func TestQuantizeNegativeResiduals(t *testing.T) {
	code, recon, ok := Quantize(-50, 50, 10)
	if !ok {
		t.Fatal("should quantize")
	}
	if d := recon - (-50); d > 10 || d < -10 {
		t.Fatalf("error %d out of bound", d)
	}
	if Reconstruct(code, 50, 10) != recon {
		t.Fatal("reconstruct mismatch")
	}
}

func TestBoundSymGrid(t *testing.T) {
	tau := int64(1 << 12)
	cases := []struct {
		xi          int64
		wantSnapped int64
	}{
		{tau, tau},
		{tau - 1, tau / 2},
		{tau / 2, tau / 2},
		{tau/2 - 1, tau / 4},
		{1, 1},
		{2 * tau, 2 * tau}, // relaxation above τ′
		{3 * tau, 2 * tau}, // snapped down to the grid
		{tau << MaxBoundUp, tau << MaxBoundUp},
		{tau<<MaxBoundUp + 5, tau << MaxBoundUp}, // capped at the top of the grid
	}
	for _, c := range cases {
		sym, snapped := BoundSym(c.xi, tau)
		if snapped != c.wantSnapped {
			t.Errorf("BoundSym(%d) snapped = %d, want %d", c.xi, snapped, c.wantSnapped)
		}
		if got := BoundFromSym(sym, tau); got != snapped {
			t.Errorf("BoundFromSym(%d) = %d, want %d", sym, got, snapped)
		}
	}
}

func TestBoundSymLossless(t *testing.T) {
	tau := int64(100)
	for _, xi := range []int64{0, -5} {
		sym, snapped := BoundSym(xi, tau)
		if sym != LosslessSym || snapped != 0 {
			t.Errorf("BoundSym(%d) = (%d, %d)", xi, sym, snapped)
		}
	}
	// Tiny bound below τ′/2^MaxBoundDown degrades to lossless.
	sym, _ := BoundSym(1, 1<<50)
	if sym != LosslessSym {
		t.Errorf("tiny relative bound should be lossless, got sym %d", sym)
	}
	if BoundFromSym(LosslessSym, tau) != 0 {
		t.Error("BoundFromSym(LosslessSym) must be 0")
	}
	if BoundFromSym(200, tau) != 0 {
		t.Error("out-of-range symbol must decode to 0")
	}
}

func TestBoundSymNeverExceedsDerived(t *testing.T) {
	// The snapped bound must never exceed the derived bound: that is the
	// soundness condition of the whole scheme.
	rng := rand.New(rand.NewSource(60))
	for i := 0; i < 10000; i++ {
		tau := rng.Int63n(1<<20) + 1
		xi := rng.Int63n(1 << 24)
		sym, snapped := BoundSym(xi, tau)
		if snapped > xi && xi > 0 {
			t.Fatalf("snapped %d > derived %d (tau %d)", snapped, xi, tau)
		}
		if got := BoundFromSym(sym, tau); got != snapped {
			t.Fatalf("symbol round trip: %d != %d", got, snapped)
		}
	}
}

func TestFloorDiv(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{7, 2, 3}, {-7, 2, -4}, {6, 3, 2}, {-6, 3, -2}, {0, 5, 0}, {-1, 5, -1},
	}
	for _, c := range cases {
		if got := floorDiv(c.a, c.b); got != c.want {
			t.Errorf("floorDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// scanBoundSym is the exponent scan BoundSym replaced: every grid
// exponent from the top of the grid down until a positive bound ≤ xi.
// It is the oracle of TestBoundSymMatchesScan.
func scanBoundSym(xi, tau int64) (uint8, int64) {
	if xi <= 0 || tau <= 0 {
		return LosslessSym, 0
	}
	for e := -MaxBoundUp; e <= MaxBoundDown; e++ {
		b := boundAt(e, tau)
		if b > 0 && b <= xi {
			return uint8(e + MaxBoundUp), b
		}
	}
	return LosslessSym, 0
}

// TestBoundSymMatchesScan holds BoundSym to the scan over random pairs
// and over every grid edge: each grid bound, one below and one above it,
// for τ′ from 1 to 2^40 (fixed.MaxBound).
func TestBoundSymMatchesScan(t *testing.T) {
	check := func(xi, tau int64) {
		t.Helper()
		sym, snapped := BoundSym(xi, tau)
		wsym, wsnapped := scanBoundSym(xi, tau)
		if sym != wsym || snapped != wsnapped {
			t.Fatalf("BoundSym(%d, %d) = (%d, %d), scan (%d, %d)", xi, tau, sym, snapped, wsym, wsnapped)
		}
	}
	taus := []int64{1, 2, 3, 5, 7, 100, 1<<20 - 1, 1 << 20, 1<<20 + 1, 1<<40 - 1, 1 << 40}
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 200; i++ {
		taus = append(taus, rng.Int63n(1<<40)+1, int64(1)<<rng.Intn(41))
	}
	for _, tau := range taus {
		for _, xi := range []int64{-1, 0, 1, 2, 3, 1<<62 - 1, 1 << 62, 1<<63 - 1} {
			check(xi, tau)
		}
		for e := -MaxBoundUp - 1; e <= MaxBoundDown+1; e++ {
			var b int64
			switch {
			case e < -MaxBoundUp:
				b = tau << (MaxBoundUp + 1)
			case e >= 0:
				b = tau >> uint(e)
			default:
				b = tau << uint(-e)
			}
			for _, xi := range []int64{b - 1, b, b + 1} {
				check(xi, tau)
			}
		}
	}
	for i := 0; i < 200000; i++ {
		tau := rng.Int63n(1<<40) + 1
		xi := rng.Int63() >> uint(rng.Intn(63))
		check(xi, tau)
	}
}
