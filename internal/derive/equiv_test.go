package derive

import (
	"math/rand"
	"testing"

	"repro/internal/exact/filter"
)

// fillVals populates vertex component slices with entries uniform in
// [-bound, bound].
func fillVals(rng *rand.Rand, n int, bound int64, slices ...[]int64) {
	for _, s := range slices {
		for i := 0; i < n; i++ {
			s[i] = rng.Int63n(2*bound+1) - bound
		}
	}
}

// pick3 returns three distinct vertex indices in [0, n).
func pick3(rng *rand.Rand, n int) (int, int, int) {
	a := rng.Intn(n)
	b := rng.Intn(n - 1)
	if b >= a {
		b++
	}
	c := rng.Intn(n)
	for c == a || c == b {
		c = rng.Intn(n)
	}
	return a, b, c
}

func pick4(rng *rand.Rand, n int) (int, int, int, int) {
	a, b, c := pick3(rng, n)
	d := rng.Intn(n)
	for d == a || d == b || d == c {
		d = rng.Intn(n)
	}
	return a, b, c, d
}

// TestPsi2DMatchesReference pins the int64 fast path exactly equal to
// the original Int128 evaluation, at full contract magnitude, small
// magnitudes, and degenerate data.
func TestPsi2DMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	const nv = 8
	u := make([]int64, nv)
	v := make([]int64, nv)
	bounds := []int64{filter.MaxMag, 1 << 12, 64, 4, 1}
	for i := 0; i < 200000; i++ {
		fillVals(rng, nv, bounds[i%len(bounds)], u, v)
		if i%11 == 0 {
			u[i%nv], v[i%nv] = 0, 0 // zero vertex: degenerate data rows
		}
		a, b, last := pick3(rng, nv)
		want := Psi2DReference(u, v, a, b, last)
		if got := Psi2D(u, v, a, b, last); got != want {
			t.Fatalf("Psi2D(u=%v v=%v %d,%d,%d) = %d, reference %d", u, v, a, b, last, got, want)
		}
	}
}

// TestPsi2DWideMatchesReference drives the out-of-contract wide path in
// the band where the Int128 reference is still exact, so the two must
// agree there too.
func TestPsi2DWideMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	const nv = 6
	u := make([]int64, nv)
	v := make([]int64, nv)
	for i := 0; i < 20000; i++ {
		fillVals(rng, nv, 1<<26, u, v)
		u[i%nv] = filter.MaxMag + 1 + rng.Int63n(1<<25) // force out of contract
		a, b, last := pick3(rng, nv)
		want := Psi2DReference(u, v, a, b, last)
		if got := Psi2D(u, v, a, b, last); got != want {
			t.Fatalf("wide Psi2D(u=%v v=%v %d,%d,%d) = %d, reference %d", u, v, a, b, last, got, want)
		}
	}
}

// TestPsi3DMatchesReference pins the filtered derivation exactly equal
// to min(reference, cap) of the original Int128 evaluation. The filter
// may only skip exact evaluations it has proven cannot lower the
// result, so equality must be bit-exact for every cap, Unbounded
// included. Every call books four certification outcomes (the
// orientation and the three drops) unless it returns early on a zero
// orientation bound, so the Local's totals must stay within that.
func TestPsi3DMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	const nv = 8
	u := make([]int64, nv)
	v := make([]int64, nv)
	w := make([]int64, nv)
	caps := []int64{0, 1, 3, 100, 1 << 20, Unbounded}
	bounds := []int64{filter.MaxMag, 1 << 12, 64, 4, 1}
	var loc filter.Local
	calls := 0
	for i := 0; i < 100000; i++ {
		fillVals(rng, nv, bounds[i%len(bounds)], u, v, w)
		if i%11 == 0 {
			u[i%nv], v[i%nv], w[i%nv] = 0, 0, 0
		}
		a, b, c, last := pick4(rng, nv)
		want := Psi3DReference(u, v, w, a, b, c, last)
		for _, cap := range caps {
			calls++
			if got := Psi3D(u, v, w, a, b, c, last, cap, &loc); got != min(want, cap) {
				t.Fatalf("Psi3D(cap=%d) = %d, want min(%d,%d) (u=%v v=%v w=%v vs=%d,%d,%d,%d)",
					cap, got, want, cap, u, v, w, a, b, c, last)
			}
		}
	}
	// The capped runs above must actually exercise the filter: small
	// caps against generic data are exactly its target case.
	if loc.PsiCert == 0 {
		t.Errorf("filter never certified a capped Ψ candidate over %d calls", calls)
	}
	if n := loc.PsiCert + loc.PsiFallback; n == 0 || n > 4*uint64(calls) {
		t.Errorf("Ψ certifications booked %d outcomes over %d calls, want 1..%d", n, calls, 4*calls)
	}
	loc.Flush()
}

// TestPsi3DWideMatchesReference covers the out-of-contract wide path in
// the band where the Int128 reference is still exact.
func TestPsi3DWideMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	const nv = 6
	u := make([]int64, nv)
	v := make([]int64, nv)
	w := make([]int64, nv)
	caps := []int64{0, 7, Unbounded}
	var loc filter.Local
	for i := 0; i < 10000; i++ {
		fillVals(rng, nv, 1<<25, u, v, w)
		w[i%nv] = -(filter.MaxMag + 1 + rng.Int63n(1<<24))
		a, b, c, last := pick4(rng, nv)
		want := Psi3DReference(u, v, w, a, b, c, last)
		cap := caps[i%len(caps)]
		if got := Psi3D(u, v, w, a, b, c, last, cap, &loc); got != min(want, cap) {
			t.Fatalf("wide Psi3D(cap=%d) = %d, want min(%d,%d) (u=%v v=%v w=%v)", cap, got, want, cap, u, v, w)
		}
	}
	// The wide path never reaches the filter.
	if (loc.Snapshot != filter.Snapshot{}) {
		t.Errorf("wide Psi3D booked filter outcomes: %+v", loc.Snapshot)
	}
}
