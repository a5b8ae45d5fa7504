package derive

import (
	"math/rand"
	"testing"

	"repro/internal/exact"
	"repro/internal/exact/filter"
)

// detSign3/detSign4 are plain (non-SoS) sign helpers for the property
// tests.
func detSign3(m [3][3]int64) int { return exact.Det3(&m).Sign() }
func detSign4(m [4][4]int64) int { return exact.Det4(&m).Sign() }

func TestTheorem1Property3x3(t *testing.T) {
	// Perturbing a row within Ψ must preserve the determinant sign.
	rng := rand.New(rand.NewSource(70))
	for trial := 0; trial < 2000; trial++ {
		m := [][]int64{
			{rng.Int63n(2000) - 1000, rng.Int63n(2000) - 1000, rng.Int63n(2000) - 1000},
			{rng.Int63n(2000) - 1000, rng.Int63n(2000) - 1000, rng.Int63n(2000) - 1000},
			{rng.Int63n(2000) - 1000, rng.Int63n(2000) - 1000, rng.Int63n(2000) - 1000},
		}
		row := rng.Intn(3)
		psi := PsiRow(m, row, -1)
		if psi <= 0 || psi == Unbounded {
			continue
		}
		before := exact.DetN(m).Sign()
		if before == 0 {
			t.Fatal("Ψ > 0 for singular matrix")
		}
		for k := 0; k < 10; k++ {
			pert := make([][]int64, 3)
			for r := range m {
				pert[r] = append([]int64(nil), m[r]...)
			}
			for c := 0; c < 3; c++ {
				pert[row][c] += rng.Int63n(2*psi+1) - psi
			}
			if after := exact.DetN(pert).Sign(); after != before {
				t.Fatalf("sign flipped: m=%v row=%d psi=%d pert=%v", m, row, psi, pert)
			}
		}
	}
}

func TestTheorem1Property4x4WithOnesColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 1000; trial++ {
		m := make([][]int64, 4)
		for r := range m {
			m[r] = []int64{rng.Int63n(2000) - 1000, rng.Int63n(2000) - 1000, rng.Int63n(2000) - 1000, 1}
		}
		row := rng.Intn(4)
		psi := PsiRow(m, row, 3)
		if psi <= 0 || psi == Unbounded {
			continue
		}
		before := exact.DetN(m).Sign()
		for k := 0; k < 5; k++ {
			pert := make([][]int64, 4)
			for r := range m {
				pert[r] = append([]int64(nil), m[r]...)
			}
			for c := 0; c < 3; c++ { // ones column never perturbed
				pert[row][c] += rng.Int63n(2*psi+1) - psi
			}
			if after := exact.DetN(pert).Sign(); after != before {
				t.Fatalf("sign flipped with ones column: m=%v row=%d psi=%d", m, row, psi)
			}
		}
	}
}

// contains2 replicates the point-in-simplex decision on raw values (plain
// signs; trials with any zero determinant are skipped by the callers).
func contains2(u, v [3]int64) (bool, bool) {
	lam := [3][3]int64{{u[0], v[0], 1}, {u[1], v[1], 1}, {u[2], v[2], 1}}
	s := detSign3(lam)
	if s == 0 {
		return false, false
	}
	for i := 0; i < 3; i++ {
		li := lam
		li[i] = [3]int64{0, 0, 1}
		si := detSign3(li)
		if si == 0 {
			return false, false
		}
		if si != s {
			return false, true
		}
	}
	return true, true
}

func TestPsi2DPreservesDetection(t *testing.T) {
	// The headline invariant (Theorem 2 / Lemma 3): perturbing the last
	// vertex within Ψ(S) never changes the critical point test outcome.
	rng := rand.New(rand.NewSource(72))
	tested := 0
	for trial := 0; trial < 5000; trial++ {
		u := []int64{rng.Int63n(200) - 100, rng.Int63n(200) - 100, rng.Int63n(200) - 100}
		v := []int64{rng.Int63n(200) - 100, rng.Int63n(200) - 100, rng.Int63n(200) - 100}
		before, ok := contains2([3]int64{u[0], u[1], u[2]}, [3]int64{v[0], v[1], v[2]})
		if !ok {
			continue
		}
		psi := Psi2D(u, v, 0, 1, 2)
		if psi <= 0 {
			continue
		}
		if psi == Unbounded {
			psi = 1000 // exercise large perturbations
		}
		tested++
		for k := 0; k < 20; k++ {
			u2 := append([]int64(nil), u...)
			v2 := append([]int64(nil), v...)
			u2[2] += rng.Int63n(2*psi+1) - psi
			v2[2] += rng.Int63n(2*psi+1) - psi
			after, _ := contains2([3]int64{u2[0], u2[1], u2[2]}, [3]int64{v2[0], v2[1], v2[2]})
			if after != before {
				t.Fatalf("detection flipped: u=%v v=%v psi=%d -> u=%v v=%v", u, v, psi, u2, v2)
			}
		}
	}
	if tested < 100 {
		t.Fatalf("property exercised only %d times", tested)
	}
}

func contains3(u, v, w [4]int64) (bool, bool) {
	var lam [4][4]int64
	for r := 0; r < 4; r++ {
		lam[r] = [4]int64{u[r], v[r], w[r], 1}
	}
	s := detSign4(lam)
	if s == 0 {
		return false, false
	}
	for i := 0; i < 4; i++ {
		li := lam
		li[i] = [4]int64{0, 0, 0, 1}
		si := detSign4(li)
		if si == 0 {
			return false, false
		}
		if si != s {
			return false, true
		}
	}
	return true, true
}

func TestPsi3DPreservesDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	var loc filter.Local
	tested := 0
	for trial := 0; trial < 3000; trial++ {
		var u, v, w [4]int64
		us := make([]int64, 4)
		vs := make([]int64, 4)
		ws := make([]int64, 4)
		for r := 0; r < 4; r++ {
			us[r] = rng.Int63n(100) - 50
			vs[r] = rng.Int63n(100) - 50
			ws[r] = rng.Int63n(100) - 50
			u[r], v[r], w[r] = us[r], vs[r], ws[r]
		}
		before, ok := contains3(u, v, w)
		if !ok {
			continue
		}
		psi := Psi3D(us, vs, ws, 0, 1, 2, 3, Unbounded, &loc)
		if psi <= 0 {
			continue
		}
		if psi == Unbounded {
			psi = 1000
		}
		tested++
		for k := 0; k < 10; k++ {
			u2, v2, w2 := u, v, w
			u2[3] += rng.Int63n(2*psi+1) - psi
			v2[3] += rng.Int63n(2*psi+1) - psi
			w2[3] += rng.Int63n(2*psi+1) - psi
			after, _ := contains3(u2, v2, w2)
			if after != before {
				t.Fatalf("3D detection flipped: psi=%d", psi)
			}
		}
	}
	if tested < 50 {
		t.Fatalf("property exercised only %d times", tested)
	}
}

func TestPsiRowDegenerate(t *testing.T) {
	m := [][]int64{{1, 2, 3}, {1, 2, 3}, {4, 5, 6}}
	if got := PsiRow(m, 2, -1); got != 0 {
		t.Errorf("singular matrix Ψ = %d, want 0", got)
	}
}

func TestPsiRowOnesColumn2x2(t *testing.T) {
	// m = [[0,1],[5,1]], det = -5. Perturbing row 1's data entry: the only
	// denominator term removes the data column, leaving the ones column,
	// so Ψ = (5−1)/1 = 4. (A zero denominator — the Unbounded case — is
	// unreachable for well-formed orientation predicates: if every minor
	// of the perturbed row vanishes, the determinant itself vanishes; the
	// constant is purely defensive saturation.)
	m := [][]int64{{0, 1}, {5, 1}}
	if got := PsiRow(m, 1, 1); got != 4 {
		t.Errorf("Ψ = %d, want 4", got)
	}
	// Perturbing by ≤ 4 keeps det negative: det([[0,1],[5+e,1]]) = -5-e.
	for e := int64(-4); e <= 4; e++ {
		if -5-e >= 0 {
			t.Errorf("sign not preserved at e=%d", e)
		}
	}
}

func TestPsiEdge(t *testing.T) {
	if got := PsiEdge(10, 30, 18); got != 7 {
		t.Errorf("PsiEdge = %d, want 7", got)
	}
	if got := PsiEdge(10, 30, 10); got != 0 {
		t.Errorf("PsiEdge at endpoint = %d, want 0", got)
	}
	// Property: shifting either endpoint by ≤ Ψ never moves it across f.
	rng := rand.New(rand.NewSource(74))
	for trial := 0; trial < 2000; trial++ {
		f0 := rng.Int63n(200) - 100
		f1 := rng.Int63n(200) - 100
		f := rng.Int63n(200) - 100
		psi := PsiEdge(f0, f1, f)
		if psi <= 0 {
			continue
		}
		for k := 0; k < 5; k++ {
			e := rng.Int63n(2*psi+1) - psi
			if sideOf(f0+e, f) != sideOf(f0, f) || sideOf(f1+e, f) != sideOf(f1, f) {
				t.Fatalf("edge side flipped: f0=%d f1=%d f=%d psi=%d e=%d", f0, f1, f, psi, e)
			}
		}
	}
}

func sideOf(v, f int64) int {
	switch {
	case v < f:
		return -1
	case v > f:
		return 1
	default:
		return 0
	}
}

func TestSignPreservingBound(t *testing.T) {
	if SignPreservingBound(0) != 0 {
		t.Error("zero value must be pinned")
	}
	if SignPreservingBound(5) != 4 || SignPreservingBound(-5) != 4 {
		t.Error("bound should be |z|-1")
	}
	// Property: |ε| ≤ bound keeps the strict sign.
	for _, z := range []int64{1, 2, 17, -1, -2, -17, 1000, -1000} {
		b := SignPreservingBound(z)
		for _, e := range []int64{-b, 0, b} {
			if (z+e > 0) != (z > 0) {
				t.Errorf("sign of %d flipped by %d (bound %d)", z, e, b)
			}
		}
	}
}

func TestPsiMonotoneUnderScaling(t *testing.T) {
	// Scaling all data by 2 scales the bound roughly by 2 (homogeneity of
	// the determinant quotient). Sanity check, not exact equality because
	// of the −1 strictness margin.
	u := []int64{40, -17, 23}
	v := []int64{-9, 31, 5}
	p1 := Psi2D(u, v, 0, 1, 2)
	u2 := []int64{80, -34, 46}
	v2 := []int64{-18, 62, 10}
	p2 := Psi2D(u2, v2, 0, 1, 2)
	if p2 < p1 {
		t.Errorf("Ψ not monotone under scaling: %d then %d", p1, p2)
	}
}

func BenchmarkPsi2D(b *testing.B) {
	u := []int64{40, -17, 23}
	v := []int64{-9, 31, 5}
	for i := 0; i < b.N; i++ {
		Psi2D(u, v, 0, 1, 2)
	}
}

func BenchmarkPsi3D(b *testing.B) {
	u := []int64{40, -17, 23, 8}
	v := []int64{-9, 31, 5, -12}
	w := []int64{14, -6, 9, 27}
	var loc filter.Local
	for i := 0; i < b.N; i++ {
		Psi3D(u, v, w, 0, 1, 2, 3, Unbounded, &loc)
	}
}

// benchField3 builds a fixed-point-shaped corpus for the capped 3D
// derivation benchmarks: smooth values up to ~2^20 (what the transform
// emits) over a pile of tetrahedra, capped at a τ′-sized quotient.
func benchField3() (u, v, w []int64, tets [][4]int, cap int64) {
	rng := rand.New(rand.NewSource(71))
	const nv = 4096
	u = make([]int64, nv)
	v = make([]int64, nv)
	w = make([]int64, nv)
	for i := range u {
		u[i] = rng.Int63n(1<<21) - 1<<20
		v[i] = rng.Int63n(1<<21) - 1<<20
		w[i] = rng.Int63n(1<<21) - 1<<20
	}
	for i := 0; i < 1024; i++ {
		base := rng.Intn(nv - 4)
		tets = append(tets, [4]int{base, base + 1, base + 2, base + 3})
	}
	return u, v, w, tets, 1 << 14
}

// BenchmarkPsi3DCapped is the filtered capped derivation the kernel
// runs per bound candidate, with a Local absorbing the filter counters
// exactly like the kernel's batch.
func BenchmarkPsi3DCapped(b *testing.B) {
	u, v, w, tets, cap := benchField3()
	var loc filter.Local
	var sink int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vs := &tets[i%len(tets)]
		sink += Psi3D(u, v, w, vs[0], vs[1], vs[2], vs[3], cap, &loc)
	}
	benchSink = sink
}

// BenchmarkPsi3DReferenceCapped is the unfiltered Int128 evaluation of
// the same corpus, the baseline the filtered path is gated against.
func BenchmarkPsi3DReferenceCapped(b *testing.B) {
	u, v, w, tets, cap := benchField3()
	var sink int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vs := &tets[i%len(tets)]
		p := Psi3DReference(u, v, w, vs[0], vs[1], vs[2], vs[3])
		if p > cap {
			p = cap
		}
		sink += p
	}
	benchSink = sink
}

var benchSink int64
