package filter

import (
	"math"
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/exact"
)

// big3 evaluates a 3×3 determinant in big.Int: the independent oracle
// the certified stages are judged against.
func big3(m *[3][3]int64) *big.Int {
	mul := func(a, b int64) *big.Int {
		return new(big.Int).Mul(big.NewInt(a), big.NewInt(b))
	}
	m0 := new(big.Int).Sub(mul(m[1][1], m[2][2]), mul(m[1][2], m[2][1]))
	m1 := new(big.Int).Sub(mul(m[1][0], m[2][2]), mul(m[1][2], m[2][0]))
	m2 := new(big.Int).Sub(mul(m[1][0], m[2][1]), mul(m[1][1], m[2][0]))
	d := new(big.Int).Mul(big.NewInt(m[0][0]), m0)
	d.Sub(d, new(big.Int).Mul(big.NewInt(m[0][1]), m1))
	d.Add(d, new(big.Int).Mul(big.NewInt(m[0][2]), m2))
	return d
}

// big4 evaluates a 4×4 determinant in big.Int by first-row cofactor
// expansion over big3.
func big4(m *[4][4]int64) *big.Int {
	d := new(big.Int)
	for c := 0; c < 4; c++ {
		var sub [3][3]int64
		for r := 1; r < 4; r++ {
			cc := 0
			for c2 := 0; c2 < 4; c2++ {
				if c2 != c {
					sub[r-1][cc] = m[r][c2]
					cc++
				}
			}
		}
		term := new(big.Int).Mul(big.NewInt(m[0][c]), big3(&sub))
		if c%2 == 1 {
			term.Neg(term)
		}
		d.Add(d, term)
	}
	return d
}

// homRand2 returns a homogeneous 3×3 with data entries uniform in
// [-bound, bound].
func homRand2(rng *rand.Rand, bound int64) [3][3]int64 {
	var m [3][3]int64
	for r := 0; r < 3; r++ {
		m[r][0] = rng.Int63n(2*bound+1) - bound
		m[r][1] = rng.Int63n(2*bound+1) - bound
		m[r][2] = 1
	}
	return m
}

func homRand3(rng *rand.Rand, bound int64) [4][4]int64 {
	var m [4][4]int64
	for r := 0; r < 4; r++ {
		for c := 0; c < 3; c++ {
			m[r][c] = rng.Int63n(2*bound+1) - bound
		}
		m[r][3] = 1
	}
	return m
}

// TestOrient2SignMatchesOracle drives the 2D predicate over random
// in-contract matrices — including SoS-replaced rows, duplicates and
// boundary magnitudes — against the big.Int oracle. The in-contract 2D
// stage must certify every call (it is exact), so the wide counter must
// not move.
func TestOrient2SignMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var loc Local
	n := 0
	check := func(m *[3][3]int64) {
		n++
		if got, want := loc.Orient2Sign(m), big3(m).Sign(); got != want {
			t.Fatalf("Orient2Sign(%v) = %d, want %d", *m, got, want)
		}
	}
	for i := 0; i < 300000; i++ {
		m := homRand2(rng, MaxMag)
		check(&m)
		// SoS-replaced row, as triContains produces.
		m[i%3] = [3]int64{0, 0, 1}
		check(&m)
		// Duplicate rows: certified zero.
		m[(i+1)%3] = m[i%3]
		check(&m)
		// Small-magnitude fields.
		s := homRand2(rng, 64)
		check(&s)
	}
	// Boundary magnitudes.
	for _, a := range []int64{-MaxMag, -MaxMag + 1, 0, MaxMag - 1, MaxMag} {
		for _, b := range []int64{-MaxMag, 0, MaxMag} {
			m := [3][3]int64{{a, b, 1}, {b, -a, 1}, {-a, -b, 1}}
			check(&m)
		}
	}
	d := loc.Snapshot
	if d.Orient2Fast != uint64(n) {
		t.Errorf("orient2_fast = %d, want %d (every in-contract call certifies)", d.Orient2Fast, n)
	}
	if d.Orient2Wide != 0 {
		t.Errorf("orient2_wide = %d, want 0 for in-contract corpus", d.Orient2Wide)
	}
}

// TestOrient2SignOutOfContract routes admission violations — giant
// entries from just past the 2^30 admission bound up to the int64
// extremes, and non-homogeneous last columns — through the wide
// fallback and still demands oracle-exact signs.
func TestOrient2SignOutOfContract(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var loc Local
	n := 0
	check := func(m *[3][3]int64) {
		n++
		if got, want := loc.Orient2Sign(m), big3(m).Sign(); got != want {
			t.Fatalf("Orient2Sign(%v) = %d, want %d", *m, got, want)
		}
	}
	extremes := []int64{math.MinInt64, math.MinInt64 + 1, -(1 << 30) - 1, 1 << 30, math.MaxInt64 - 1, math.MaxInt64}
	for i := 0; i < 2000; i++ {
		m := homRand2(rng, MaxMag)
		m[i%3][i%2] = extremes[i%len(extremes)]
		check(&m)
		// Non-homogeneous last column.
		m2 := homRand2(rng, MaxMag)
		m2[i%3][2] = 2 + rng.Int63n(1<<20)
		check(&m2)
		// Full-range random.
		var m3 [3][3]int64
		for r := 0; r < 3; r++ {
			for c := 0; c < 3; c++ {
				m3[r][c] = rng.Int63() - rng.Int63()
			}
		}
		check(&m3)
	}
	d := loc.Snapshot
	if d.Orient2Wide != uint64(n) {
		t.Errorf("orient2_wide = %d, want %d (every call violates the contract)", d.Orient2Wide, n)
	}
	if d.Orient2Fast != 0 {
		t.Errorf("orient2_fast = %d, want 0 for out-of-contract corpus", d.Orient2Fast)
	}
}

// TestOrient3SignMatchesExact sweeps 1M+ random in-contract matrices at
// mixed magnitude scales against the independently validated Int128
// evaluation, then checks the accounting identity and that the float
// stages certified essentially all of a non-adversarial corpus.
func TestOrient3SignMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var loc Local
	n := 0
	bounds := []int64{MaxMag, MaxMag, MaxMag, 1 << 16, 1 << 10, 64, 8, 2}
	for i := 0; i < 1200000; i++ {
		m := homRand3(rng, bounds[i%len(bounds)])
		if i%7 == 0 {
			m[i%4] = [4]int64{0, 0, 0, 1} // SoS-replaced row
		}
		n++
		if got, want := loc.Orient3Sign(&m), exact.Det4(&m).Sign(); got != want {
			t.Fatalf("Orient3Sign(%v) = %d, want %d", m, got, want)
		}
	}
	d := loc.Snapshot
	if calls := d.Orient3Calls(); calls != uint64(n) {
		t.Errorf("accounting identity broken: stages sum to %d, want %d calls", calls, n)
	}
	if d.Orient3Wide != 0 {
		t.Errorf("orient3_wide = %d, want 0 for in-contract corpus", d.Orient3Wide)
	}
	if rate := d.Orient3AcceptRate(); rate < 0.99 {
		t.Errorf("accept rate %.4f on random corpus, want >= 0.99 (exact=%d of %d)", rate, d.Orient3Exact, n)
	}
	if d.Orient3Static == 0 || d.Orient3Run == 0 {
		t.Errorf("corpus should exercise both accept stages: static=%d run=%d", d.Orient3Static, d.Orient3Run)
	}
}

// TestOrient3SignBigOracle cross-checks against the pure big.Int
// oracle, independent of any production determinant code.
func TestOrient3SignBigOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	var loc Local
	for i := 0; i < 50000; i++ {
		m := homRand3(rng, MaxMag)
		if got, want := loc.Orient3Sign(&m), big4(&m).Sign(); got != want {
			t.Fatalf("Orient3Sign(%v) = %d, want %d", m, got, want)
		}
		s := homRand3(rng, 16)
		if got, want := loc.Orient3Sign(&s), big4(&s).Sign(); got != want {
			t.Fatalf("Orient3Sign(%v) = %d, want %d", s, got, want)
		}
	}
}

// adversarial3 builds a homogeneous 4×4 whose translated determinant is
// exactly e·k while the term magnitudes are near the top of the
// contract — the float stages face huge cancellation with a tiny true
// value, i.e. inputs at the error bound.
//
// With translated rows r0=(A,P,Q), r1=(A,P,Q+e), r2=(x2,y2,z2) the
// determinant collapses to e·(P·x2 − A·y2).
func adversarial3(A, P, Q, e, x2, y2, z2 int64) [4][4]int64 {
	base := [3]int64{-(1 << 20), -(1 << 20), -(1 << 20)}
	var m [4][4]int64
	rows := [3][3]int64{{A, P, Q}, {A, P, Q + e}, {x2, y2, z2}}
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			m[r][c] = base[c] + rows[r][c]
		}
		m[r][3] = 1
	}
	copy(m[3][:3], base[:])
	m[3][3] = 1
	return m
}

// TestOrient3SignAdversarial hammers the predicate with near-degenerate
// constructions: zero rows, equal rows, perturbations sized exactly at
// the error bound, and boundary magnitudes. Signs must match the
// big.Int oracle on every one.
func TestOrient3SignAdversarial(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	var loc Local
	check := func(m *[4][4]int64) {
		t.Helper()
		if got, want := loc.Orient3Sign(m), big4(m).Sign(); got != want {
			t.Fatalf("Orient3Sign(%v) = %d, want %d", *m, got, want)
		}
	}
	const M = 1 << 20
	for i := 0; i < 50000; i++ {
		// Tiny determinant under huge cancellation: P=A-1, x2 chosen so
		// P·x2 − A·y2 = ±k for small k (see adversarial3).
		A := int64(M + rng.Int63n(1<<19))
		P := A - 1
		y2 := P - rng.Int63n(1<<10)
		// P·x2 ≡ A·y2 + k (mod P): A ≡ 1, so pick k ≡ -y2 (mod P).
		k := ((-y2)%P + P) % P
		if k > 1<<12 {
			// Shift y2 so the residue is small; keeps the construction
			// within the contract.
			y2 = P - (k - rng.Int63n(1<<10))
			k = ((-y2)%P + P) % P
		}
		x2 := (A*y2 + k) / P
		e := int64(1 + rng.Int63n(3))
		if rng.Intn(2) == 0 {
			e = -e
		}
		m := adversarial3(A, P, A-5-rng.Int63n(64), e, x2, y2, A-50-rng.Int63n(64))
		if inContract3(&m) {
			check(&m)
		}

		// Duplicate points (exact zero) at full magnitude.
		d := homRand3(rng, M)
		d[1] = d[0]
		check(&d)
		// Zero translated row: a point equal to the last one.
		z := homRand3(rng, M)
		z[2] = z[3]
		check(&z)
		// Boundary magnitudes.
		b := homRand3(rng, MaxMag)
		for c := 0; c < 3; c++ {
			if rng.Intn(2) == 0 {
				b[0][c] = MaxMag
			} else {
				b[0][c] = -MaxMag
			}
		}
		check(&b)
	}
}

// TestOrient3SignOutOfContract routes int64-extreme entries and
// non-homogeneous columns through the wide path with oracle-exact
// signs.
func TestOrient3SignOutOfContract(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	var loc Local
	n := 0
	check := func(m *[4][4]int64) {
		n++
		if got, want := loc.Orient3Sign(m), big4(m).Sign(); got != want {
			t.Fatalf("Orient3Sign(%v) = %d, want %d", *m, got, want)
		}
	}
	extremes := []int64{math.MinInt64, math.MinInt64 + 1, -(1 << 22) - 1, 1 << 22, math.MaxInt64}
	for i := 0; i < 2000; i++ {
		m := homRand3(rng, MaxMag)
		m[i%4][i%3] = extremes[i%len(extremes)]
		check(&m)
		var f [4][4]int64
		for r := 0; r < 4; r++ {
			for c := 0; c < 4; c++ {
				f[r][c] = rng.Int63() - rng.Int63()
			}
		}
		check(&f)
	}
	d := loc.Snapshot
	if d.Orient3Wide != uint64(n) {
		t.Errorf("orient3_wide = %d, want %d", d.Orient3Wide, n)
	}
}

// TestOrient3FallbackAccounting feeds a corpus constructed to be
// inconclusive for every float stage — duplicate points whose term
// magnitudes push the running error bound past the certified-zero
// window — and pins the exact-fallback counter to the corpus size.
func TestOrient3FallbackAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	const M = 1 << 20
	corpus := make([][4][4]int64, 0, 500)
	for len(corpus) < 500 {
		// p0 == p1 at (+M,+M,+M), p3 at (−M,−M,−M): translated rows
		// r0 == r1 == (2M,2M,2M), so t0 == t1 cancel exactly and t2 = 0,
		// while |t0| ≈ 2^42·|c−b| ≥ 2^46 keeps errB ≥ 0.5. The float
		// stages must all decline; the true determinant is exactly 0.
		var m [4][4]int64
		m[0] = [4]int64{M, M, M, 1}
		m[1] = m[0]
		m[3] = [4]int64{-M, -M, -M, 1}
		b := rng.Int63n(2*M+1) - M
		c := rng.Int63n(2*M+1) - M
		if c-b < 16 && b-c < 16 {
			continue
		}
		m[2] = [4]int64{rng.Int63n(2*M+1) - M, b, c, 1}
		corpus = append(corpus, m)
	}
	var probe Local
	for _, m := range corpus {
		if s, ok := orient3Float(&m, &probe); ok {
			t.Fatalf("orient3Float certified (%d) on a must-fall-back input %v", s, m)
		}
	}
	if (probe.Snapshot != Snapshot{}) {
		t.Fatalf("declining float stages booked counts: %+v", probe.Snapshot)
	}
	var loc Local
	for _, m := range corpus {
		if got := loc.Orient3Sign(&m); got != 0 {
			t.Fatalf("Orient3Sign(%v) = %d, want 0 (duplicate points)", m, got)
		}
	}
	d := loc.Snapshot
	if d.Orient3Exact != uint64(len(corpus)) {
		t.Errorf("orient3_exact = %d, want %d", d.Orient3Exact, len(corpus))
	}
	if d.Orient3Static != 0 || d.Orient3Run != 0 || d.Orient3Zero != 0 || d.Orient3Wide != 0 {
		t.Errorf("non-fallback counters moved on fallback corpus: %+v", d)
	}
}

// TestOrient3CertifiedZeroAccounting feeds small-magnitude degenerate
// inputs where the running error window proves the determinant is
// exactly zero: the zero stage must take every one, with no exact
// fallback.
func TestOrient3CertifiedZeroAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	corpus := make([][4][4]int64, 0, 500)
	for len(corpus) < 500 {
		m := homRand3(rng, 32)
		m[1] = m[0] // duplicate point, tiny terms → errB < 0.5
		corpus = append(corpus, m)
	}
	var loc Local
	for _, m := range corpus {
		if got := loc.Orient3Sign(&m); got != 0 {
			t.Fatalf("Orient3Sign(%v) = %d, want 0", m, got)
		}
	}
	d := loc.Snapshot
	if d.Orient3Zero != uint64(len(corpus)) {
		t.Errorf("orient3_zero = %d, want %d", d.Orient3Zero, len(corpus))
	}
	if d.Orient3Exact != 0 {
		t.Errorf("orient3_exact = %d, want 0 on certified-zero corpus", d.Orient3Exact)
	}
}

// quotFloor returns floor((|det|−1)/denom) for |det| >= 1, else -1.
func quotFloor(det *big.Int, denom int64) *big.Int {
	a := new(big.Int).Abs(det)
	if a.Sign() == 0 {
		return big.NewInt(-1)
	}
	a.Sub(a, big.NewInt(1))
	return a.Div(a, big.NewInt(denom))
}

// TestOrient3PsiAtLeastSound verifies the one-sided contract of the
// orientation certificate, Psi3.OrientAtLeast: a true return is a proof
// that floor((|det|−1)/denom) >= cap; certifying a cap above the true
// quotient — or anything at all when det = 0 — is a bug. It also
// demands the stage actually fires on easy margins, and that every call
// books exactly one outcome.
func TestOrient3PsiAtLeastSound(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	var loc Local
	calls, certs, easy, easyCert := 0, 0, 0, 0
	for i := 0; i < 100000; i++ {
		m := homRand3(rng, MaxMag)
		denom := int64(1 + rng.Int63n(1<<20))
		det := big4(&m)
		q := quotFloor(det, denom)
		caps := []int64{0, 1, rng.Int63n(1 << 40)}
		if q.IsInt64() && q.Int64() >= 0 {
			qv := q.Int64()
			caps = append(caps, qv, qv/2)
			if qv < math.MaxInt64 {
				caps = append(caps, qv+1)
			}
		}
		var p Psi3
		p.Load(&m)
		for _, cap := range caps {
			calls++
			ok := p.OrientAtLeast(&loc, denom, cap)
			if ok {
				certs++
				if q.Cmp(big.NewInt(cap)) < 0 {
					t.Fatalf("certified cap=%d denom=%d but true quotient %v (det %v, m %v)", cap, denom, q, det, m)
				}
				if det.Sign() == 0 {
					t.Fatalf("certified cap=%d on an exactly-zero determinant %v", cap, m)
				}
			}
			if q.IsInt64() && cap <= q.Int64()/2 && cap < 1<<50 {
				easy++
				if ok {
					easyCert++
				}
			}
		}
		// Degenerate: duplicate points, det exactly 0 — must never
		// certify any cap.
		m[1] = m[0]
		p.Load(&m)
		calls++
		if p.OrientAtLeast(&loc, denom, 0) {
			t.Fatalf("certified cap=0 on duplicate-point matrix %v", m)
		}
	}
	if got := loc.PsiCert + loc.PsiFallback; got != uint64(calls) {
		t.Errorf("psi accounting: cert+fallback = %d, want %d", got, calls)
	}
	if loc.PsiCert != uint64(certs) {
		t.Errorf("psi_cert = %d, want %d", loc.PsiCert, certs)
	}
	if easy == 0 || float64(easyCert)/float64(easy) < 0.95 {
		t.Errorf("easy-margin certification rate %d/%d, want >= 0.95", easyCert, easy)
	}
}

// dropMatrix is drop k of a tetrahedron: the raw 3×3 of the data columns
// of rows (i, j, 3), (i,j) = (1,2), (0,2), (0,1) — the matrix whose
// quotient bit k of Psi3.DropsAtLeast certifies.
func dropMatrix(m *[4][4]int64, k int) [3][3]int64 {
	ij := [3][2]int{{1, 2}, {0, 2}, {0, 1}}[k]
	return [3][3]int64{
		{m[ij[0]][0], m[ij[0]][1], m[ij[0]][2]},
		{m[ij[1]][0], m[ij[1]][1], m[ij[1]][2]},
		{m[3][0], m[3][1], m[3][2]},
	}
}

// TestDet3PsiAtLeastSound covers the raw-3×3 certificates of the 3D Ψ
// derivation, Psi3.DropsAtLeast: every set bit is oracle-sound against
// caps placed at, just above and well below the true quotients, easy
// margins certify, and an unadmitted tetrahedron declines every drop
// while still booking three outcomes.
func TestDet3PsiAtLeastSound(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	var loc Local
	calls, easy, easyCert := 0, 0, 0
	for i := 0; i < 50000; i++ {
		m := homRand3(rng, MaxMag)
		var ds [3]int64
		var qs [3]*big.Int
		caps := []int64{0, rng.Int63n(1 << 35)}
		for k := range ds {
			ds[k] = 1 + rng.Int63n(1<<20)
			m3 := dropMatrix(&m, k)
			qs[k] = quotFloor(big3(&m3), ds[k])
			if q := qs[k]; q.IsInt64() && q.Int64() >= 0 {
				caps = append(caps, q.Int64(), q.Int64()/2, q.Int64()+1)
			}
		}
		var p Psi3
		p.Load(&m)
		for _, cap := range caps {
			calls++
			mask := p.DropsAtLeast(&loc, &ds, cap)
			for k, q := range qs {
				ok := mask&(1<<k) != 0
				if ok && q.Cmp(big.NewInt(cap)) < 0 {
					t.Fatalf("certified drop %d cap=%d denom=%d, true quotient %v (m %v)", k, cap, ds[k], q, m)
				}
				if q.IsInt64() && cap <= q.Int64()/2 && cap < 1<<50 {
					easy++
					if ok {
						easyCert++
					}
				}
			}
		}
		// Out of contract: never certified, even with huge margins.
		m[0][0] = math.MaxInt64
		p.Load(&m)
		calls++
		if mask := p.DropsAtLeast(&loc, &ds, 0); mask != 0 {
			t.Fatalf("certified drops %b of an out-of-contract tetrahedron", mask)
		}
	}
	if got := loc.PsiCert + loc.PsiFallback; got != 3*uint64(calls) {
		t.Errorf("psi accounting: cert+fallback = %d, want %d", got, 3*calls)
	}
	if easy == 0 || float64(easyCert)/float64(easy) < 0.95 {
		t.Errorf("easy-margin certification rate %d/%d, want >= 0.95", easyCert, easy)
	}
}

// TestQuotAtLeastGuards pins the explicit declines: negative inputs and
// magnitudes past 2^52 where the float comparison would lose exactness.
func TestQuotAtLeastGuards(t *testing.T) {
	cases := []struct {
		denom, cap int64
	}{
		{-1, 0}, {1, -1}, {1 << 52, 1}, {1, 1 << 52}, {math.MaxInt64, math.MaxInt64},
	}
	for _, c := range cases {
		if quotAtLeast(1e30, 0, c.denom, c.cap) {
			t.Errorf("quotAtLeast accepted denom=%d cap=%d, want decline", c.denom, c.cap)
		}
	}
	// Sanity: a comfortably-true claim is accepted.
	if !quotAtLeast(1<<40, 1, 1<<10, 1<<20) {
		t.Errorf("quotAtLeast declined a comfortable margin")
	}
}

// TestSnapshotHelpers pins the arithmetic of Sub, the rates, and the
// telemetry name map.
func TestSnapshotHelpers(t *testing.T) {
	a := Snapshot{Orient3Static: 70, Orient3Run: 20, Orient3Zero: 5, Orient3Exact: 5, PsiCert: 3, PsiFallback: 1}
	z := a.Sub(Snapshot{})
	if z != a {
		t.Errorf("Sub zero = %+v, want %+v", z, a)
	}
	if got := a.Orient3Calls(); got != 100 {
		t.Errorf("Orient3Calls = %d, want 100", got)
	}
	if got := a.Orient3AcceptRate(); got != 0.95 {
		t.Errorf("Orient3AcceptRate = %v, want 0.95", got)
	}
	if got := a.PsiCertRate(); got != 0.75 {
		t.Errorf("PsiCertRate = %v, want 0.75", got)
	}
	if got := (Snapshot{}).Orient3AcceptRate(); got != 1 {
		t.Errorf("empty accept rate = %v, want 1", got)
	}
	m := a.Map()
	if m["exact.filter.orient3_static"] != 70 || m["exact.filter.psi_cert"] != 3 {
		t.Errorf("Map = %v", m)
	}
	if len(m) != 10 {
		t.Errorf("Map has %d entries, want 10", len(m))
	}
}

// TestPsi3CertSound is the oracle soundness check for the fused drop
// certification: a set mask bit is a proof about the exact integer
// quotient of that drop matrix, never just a float opinion.
func TestPsi3CertSound(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	var loc Local
	certs := 0
	for n := 0; n < 50000; n++ {
		m := homRand3(rng, MaxMag)
		var p Psi3
		p.Load(&m)
		var ds [3]int64
		for k := range ds {
			ds[k] = 1 + rng.Int63n(1<<16)
		}
		cap := rng.Int63n(1 << 34)
		mask := p.DropsAtLeast(&loc, &ds, cap)
		for k := range ds {
			if mask&(1<<k) == 0 {
				continue
			}
			certs++
			m3 := dropMatrix(&m, k)
			det := big3(&m3)
			if det.Sign() == 0 {
				t.Fatalf("certified drop %d on a zero determinant (m=%v)", k, m)
			}
			if quotFloor(det, ds[k]).Cmp(big.NewInt(cap)) < 0 {
				t.Fatalf("certified drop %d cap=%d but true quotient %v (det=%v d=%d)",
					k, cap, quotFloor(det, ds[k]), det, ds[k])
			}
		}
	}
	if certs == 0 {
		t.Fatal("fused drop certification never fired on an in-contract corpus")
	}
}

// merge is field-wise addition, the inverse of Sub.
func (s Snapshot) merge(d Snapshot) Snapshot {
	s.Orient2Fast += d.Orient2Fast
	s.Orient2Zero += d.Orient2Zero
	s.Orient2Wide += d.Orient2Wide
	s.Orient3Static += d.Orient3Static
	s.Orient3Run += d.Orient3Run
	s.Orient3Zero += d.Orient3Zero
	s.Orient3Exact += d.Orient3Exact
	s.Orient3Wide += d.Orient3Wide
	s.PsiCert += d.PsiCert
	s.PsiFallback += d.PsiFallback
	return s
}

// TestLocalFlushConcurrent runs the predicates from eight goroutines,
// each into its own Local and flushing every few hundred calls, and
// requires the process-wide delta to equal the sum of what the Locals
// counted, with calls = Σ stages for every predicate family. The corpus
// mixes in-contract, degenerate and out-of-contract inputs so every
// counter moves. Run under -race by `make race`.
func TestLocalFlushConcurrent(t *testing.T) {
	const goroutines, iters = 8, 3000
	before := Stats()
	var totals [goroutines]Snapshot
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + g)))
			var loc Local
			for i := 0; i < iters; i++ {
				bound := int64(MaxMag)
				if i%5 == 0 {
					bound = 4 // degenerate-heavy: certified zeros
				}
				m2 := homRand2(rng, bound)
				m3 := homRand3(rng, bound)
				if i%101 == 0 {
					m2[i%3][i%2] = math.MaxInt64 - int64(i%3)
					m3[i%4][i%3] = math.MinInt64 + int64(i%3)
				}
				loc.Orient2Sign(&m2)
				loc.Orient3Sign(&m3)
				var p Psi3
				p.Load(&m3)
				p.OrientAtLeast(&loc, rng.Int63n(1<<22), rng.Int63n(1<<30))
				p.DropsAtLeast(&loc, &[3]int64{rng.Int63n(1 << 20), rng.Int63n(1 << 20), rng.Int63n(1 << 20)}, rng.Int63n(1<<30))
				if i%300 == 299 || i == iters-1 {
					totals[g] = totals[g].merge(loc.Snapshot)
					loc.Flush()
					if (loc.Snapshot != Snapshot{}) {
						t.Errorf("goroutine %d: Flush did not reset the Local", g)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	var want Snapshot
	for _, s := range totals {
		want = want.merge(s)
	}
	d := Stats().Sub(before)
	if d != want {
		t.Fatalf("process-wide delta %+v, want the Locals' sum %+v", d, want)
	}
	const calls = goroutines * iters
	if d.Orient2Fast+d.Orient2Wide != calls || d.Orient3Calls() != calls || d.PsiCert+d.PsiFallback != 4*calls {
		t.Fatalf("calls != Σ stages over %d calls per predicate: %+v", calls, d)
	}
	if d.Orient2Zero == 0 || d.Orient2Wide == 0 || d.Orient3Static == 0 || d.Orient3Run == 0 ||
		d.Orient3Zero == 0 || d.Orient3Wide == 0 || d.PsiCert == 0 || d.PsiFallback == 0 {
		t.Errorf("corpus left a counter at zero: %+v", d)
	}
}
