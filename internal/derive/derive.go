// Package derive implements the paper's error bound derivation theory:
// sufficient per-vertex perturbation bounds that preserve the sign of the
// orientation determinants, and therefore the outcome of the robust
// point-in-simplex critical point test.
//
// Theorem 1: for an (n+1)×(n+1) matrix Λ, perturbing the entries of row m
// by at most Ψ(Λ) = |det Λ| / Σᵢ |det A_{mi}| (0 when det Λ = 0) preserves
// sign(det Λ), where A_{mi} removes row m and column i.
//
// Lemma 1: when the last column of Λ is all ones (homogeneous orientation
// matrices) and that column is never perturbed, the sum only ranges over
// the data columns.
//
// Theorem 2 with Lemmas 3/4 instantiate the bound for the point-in-simplex
// test: the simplex orientation matrix plus the data submatrices obtained
// by substituting each other vertex with the origin.
//
// Integer strictness: the fixed-point bounds returned here are
// ⌊(|det|−1)/Σ|minor|⌋ rather than the paper's real-valued quotient, so
// |Δdet| ≤ Ψ·Σ|minor| ≤ |det|−1 < |det| holds with certainty — the sign
// can never collapse to zero, even when the quantizer realizes the bound
// exactly.
package derive

import (
	"math"
	"math/big"

	"repro/internal/exact"
	"repro/internal/exact/filter"
)

// Unbounded is returned when a predicate imposes no constraint on the
// perturbed row (all relevant minors vanish, so the determinant is
// invariant under any perturbation of that row). Callers clamp to the
// user bound τ′.
const Unbounded = math.MaxInt64

// PsiRow is the generic Theorem 1 bound for perturbing every entry of
// `row` in the n×n matrix m (n ≤ 4). Column `onesCol` (or -1) is treated
// as exact and excluded from the denominator (Lemma 1).
func PsiRow(m [][]int64, row, onesCol int) int64 {
	n := len(m)
	det := exact.DetN(m)
	if det.IsZero() {
		return 0
	}
	denom := int64(0)
	for c := 0; c < n; c++ {
		if c == onesCol {
			continue
		}
		sub := minorOf(m, row, c)
		md, ok := exact.DetN(sub).Abs().Int64()
		if !ok {
			// Saturate: a denominator this large forces bound 0.
			return 0
		}
		denom += md
	}
	if denom == 0 {
		return Unbounded
	}
	return det.Abs().Sub(exact.Int128FromInt64(1)).DivFloor64(denom)
}

func minorOf(m [][]int64, row, col int) [][]int64 {
	n := len(m)
	sub := make([][]int64, 0, n-1)
	for r := 0; r < n; r++ {
		if r == row {
			continue
		}
		rw := make([]int64, 0, n-1)
		for c := 0; c < n; c++ {
			if c != col {
				rw = append(rw, m[r][c])
			}
		}
		sub = append(sub, rw)
	}
	return sub
}

// PsiEdge is Lemma 2: the sufficient bound for preserving which side of
// the isovalue f each endpoint of an edge lies on — min(|f−f0|, |f−f1|)
// (minus the integer strictness margin).
func PsiEdge(f0, f1, f int64) int64 {
	a := absInt64(f - f0)
	b := absInt64(f - f1)
	if b < a {
		a = b
	}
	if a == 0 {
		return 0
	}
	return a - 1
}

// Psi2DOrientationOnly is the ablation variant of Psi2D that keeps only
// the Ψ(Λ) term of Theorem 2 and drops the origin-substituted submatrix
// bounds. It preserves sign(s) but not sign(s_i) and is therefore
// UNSOUND for critical point preservation — it exists to let the
// ablation study demonstrate why Theorem 2 needs the extra predicates.
func Psi2DOrientationOnly(u, v []int64, a, b, last int) int64 {
	var lam [3][3]int64
	lam[0] = [3]int64{u[a], v[a], 1}
	lam[1] = [3]int64{u[b], v[b], 1}
	lam[2] = [3]int64{u[last], v[last], 1}
	return psiFromParts(exact.Det3(&lam), absInt64(v[a]-v[b])+absInt64(u[a]-u[b]))
}

// Psi2D is Lemma 3: the sufficient bound for perturbing both components of
// the vertex `last` of the triangle (a, b, last) while preserving the
// outcome of the point-in-simplex critical point test.
//
// Under the fixed-point magnitude contract (|value| <= filter.MaxMag) the
// whole derivation is exact in int64: the homogeneous determinant via the
// translated 2×2 form (see exact.Det3H), the data determinants as plain
// products (<= 2^43). Out-of-contract inputs take the widened
// arbitrary-precision path. Pinned equal to Psi2DReference by
// TestPsi2DMatchesReference.
func Psi2D(u, v []int64, a, b, last int) int64 {
	if !inContractVals2(u, v, a, b, last) {
		return psi2DWide(u, v, a, b, last)
	}
	// Ψ(Λ) for the homogeneous orientation matrix via translation by the
	// perturbed row; Lemma 1 denominator: |v_a − v_b| + |u_a − u_b|.
	det := (u[a]-u[last])*(v[b]-v[last]) - (v[a]-v[last])*(u[b]-u[last])
	best := psiFromParts64(det, absInt64(v[a]-v[b])+absInt64(u[a]-u[b]))

	// Ψ of the data submatrices [[u_b,v_b],[u_last,v_last]] and
	// [[u_a,v_a],[u_last,v_last]] (origin substituted for the other
	// vertex).
	for _, o := range [2]int{b, a} {
		psi := psiFromParts64(u[o]*v[last]-v[o]*u[last], absInt64(u[o])+absInt64(v[o]))
		if psi < best {
			best = psi
		}
	}
	return best
}

// Psi2DReference is the original Int128-based evaluation of Lemma 3,
// kept as the cross-check oracle for tests and the predicate
// microbenchmark. It must stay semantically identical to Psi2D on
// contract-conforming inputs.
func Psi2DReference(u, v []int64, a, b, last int) int64 {
	var lam [3][3]int64
	lam[0] = [3]int64{u[a], v[a], 1}
	lam[1] = [3]int64{u[b], v[b], 1}
	lam[2] = [3]int64{u[last], v[last], 1}
	best := psiFromParts(exact.Det3(&lam), absInt64(v[a]-v[b])+absInt64(u[a]-u[b]))
	for _, o := range [2]int{b, a} {
		det := exact.Mul64(u[o], v[last]).Sub(exact.Mul64(v[o], u[last]))
		psi := psiFromParts(det, absInt64(u[o])+absInt64(v[o]))
		if psi < best {
			best = psi
		}
	}
	return best
}

// Psi3DOrientationOnly is the 3D ablation variant; see
// Psi2DOrientationOnly.
func Psi3DOrientationOnly(u, v, w []int64, a, b, c, last int) int64 {
	vs := [4]int{a, b, c, last}
	var lam [4][4]int64
	for r, vi := range vs {
		lam[r] = [4]int64{u[vi], v[vi], w[vi], 1}
	}
	var mvw, muw, muv [3][3]int64
	for r := 0; r < 3; r++ {
		vi := vs[r]
		mvw[r] = [3]int64{v[vi], w[vi], 1}
		muw[r] = [3]int64{u[vi], w[vi], 1}
		muv[r] = [3]int64{u[vi], v[vi], 1}
	}
	denom := absInt128(exact.Det3(&mvw)) + absInt128(exact.Det3(&muw)) + absInt128(exact.Det3(&muv))
	return psiFromParts(exact.Det4(&lam), denom)
}

// Psi3D is Lemma 4: the sufficient bound for perturbing the three
// components of vertex `last` of the tetrahedron (a, b, c, last),
// capped: it returns min(Ψ, cap). The float filter certifies "this
// candidate's Ψ is at least cap" and skips its exact evaluation — the
// common case when the derived bound saturates at τ′ — counting each
// certification into loc (flushed by the caller). The result is
// bit-identical to min(Psi3DReference, cap): a candidate is skipped only
// when the filter *proves* it cannot lower the min. Pass Unbounded for
// the uncapped bound.
func Psi3D(u, v, w []int64, a, b, c, last int, cap int64, loc *filter.Local) int64 {
	vs := [4]int{a, b, c, last}
	if !inContractVals3(u, v, w, &vs) {
		return psi3DWide(u, v, w, &vs, cap)
	}
	var lam [4][4]int64
	for r, vi := range vs {
		lam[r] = [4]int64{u[vi], v[vi], w[vi], 1}
	}
	// One admission check + float conversion of the twelve data values,
	// shared by all four quotient certifications of this tetrahedron.
	var pf filter.Psi3
	pf.Load(&lam)
	// Lemma 1 denominator: homogeneous 3×3 minors over the data columns,
	// computed in the translated form directly from the differences
	// (exact in int64: diffs < 2^23, products < 2^46, sums < 2^48) —
	// identical to Det3H of the three column-pair matrices without
	// materializing them.
	du0, dv0, dw0 := u[a]-u[c], v[a]-v[c], w[a]-w[c]
	du1, dv1, dw1 := u[b]-u[c], v[b]-v[c], w[b]-w[c]
	denom := absInt64(dv0*dw1-dw0*dv1) + absInt64(du0*dw1-dw0*du1) + absInt64(du0*dv1-dv0*du1)
	best := cap
	if !pf.OrientAtLeast(loc, denom, best) {
		if psi := psiFromParts(exact.Det4H(&lam), denom); psi < best {
			best = psi
		}
	}
	// Ψ candidates are never negative, so once the min hits 0 the
	// remaining candidates cannot lower it — returning early is
	// bit-identical and skips their derivation entirely.
	if best <= 0 {
		return best
	}

	// Data submatrices: drop each non-perturbed vertex in turn; the
	// remaining rows (two data rows + the perturbed row last) form a 3×3
	// pure-data matrix whose last row is perturbed. The denominators are
	// exact int64 Det2 sums; the filter certifies all three drops in one
	// fused pass, and the 3×3 itself is only materialized on fallback.
	var ds [3]int64
	for drop := 0; drop < 3; drop++ {
		r0, r1 := vs[dropRows[drop][0]], vs[dropRows[drop][1]]
		ds[drop] = absInt64(exact.Det2(v[r0], w[r0], v[r1], w[r1])) +
			absInt64(exact.Det2(u[r0], w[r0], u[r1], w[r1])) +
			absInt64(exact.Det2(u[r0], v[r0], u[r1], v[r1]))
	}
	certMask := pf.DropsAtLeast(loc, &ds, best)
	for drop := 0; drop < 3; drop++ {
		if certMask&(1<<drop) != 0 {
			continue
		}
		r0, r1 := vs[dropRows[drop][0]], vs[dropRows[drop][1]]
		m3 := [3][3]int64{
			{u[r0], v[r0], w[r0]},
			{u[r1], v[r1], w[r1]},
			{u[last], v[last], w[last]},
		}
		if psi := psiFromParts(exact.Det3(&m3), ds[drop]); psi < best {
			best = psi
			if best <= 0 {
				return best
			}
		}
	}
	return best
}

// dropRows[drop] lists the two non-dropped row indices (into the
// tetrahedron's first three vertices) of each Lemma-4 drop matrix.
var dropRows = [3][2]int{{1, 2}, {0, 2}, {0, 1}}

// Psi3DReference is the original Int128-based evaluation of Lemma 4,
// kept as the cross-check oracle for tests and the predicate
// microbenchmark. It must stay semantically identical to Psi3D on
// contract-conforming inputs.
func Psi3DReference(u, v, w []int64, a, b, c, last int) int64 {
	vs := [4]int{a, b, c, last}
	var lam [4][4]int64
	for r, vi := range vs {
		lam[r] = [4]int64{u[vi], v[vi], w[vi], 1}
	}
	var mvw, muw, muv [3][3]int64
	for r := 0; r < 3; r++ {
		vi := vs[r]
		mvw[r] = [3]int64{v[vi], w[vi], 1}
		muw[r] = [3]int64{u[vi], w[vi], 1}
		muv[r] = [3]int64{u[vi], v[vi], 1}
	}
	denom := absInt128(exact.Det3(&mvw)) + absInt128(exact.Det3(&muw)) + absInt128(exact.Det3(&muv))
	best := psiFromParts(exact.Det4(&lam), denom)
	for drop := 0; drop < 3; drop++ {
		var rows [2]int
		k := 0
		for r := 0; r < 3; r++ {
			if r != drop {
				rows[k] = vs[r]
				k++
			}
		}
		var m3 [3][3]int64
		m3[0] = [3]int64{u[rows[0]], v[rows[0]], w[rows[0]]}
		m3[1] = [3]int64{u[rows[1]], v[rows[1]], w[rows[1]]}
		m3[2] = [3]int64{u[last], v[last], w[last]}
		det := exact.Det3(&m3)
		d := absInt64(exact.Det2(v[rows[0]], w[rows[0]], v[rows[1]], w[rows[1]])) +
			absInt64(exact.Det2(u[rows[0]], w[rows[0]], u[rows[1]], w[rows[1]])) +
			absInt64(exact.Det2(u[rows[0]], v[rows[0]], u[rows[1]], v[rows[1]]))
		psi := psiFromParts(det, d)
		if psi < best {
			best = psi
		}
	}
	return best
}

// SignPreservingBound is the relaxation of Algorithm 2 lines 11–15: when a
// component has a uniform strict sign over all vertices of a cell, the
// bound at this vertex may grow to |z|−1, which keeps the component's sign
// (strictly) and therefore keeps the cell free of critical points.
func SignPreservingBound(z int64) int64 {
	a := absInt64(z)
	if a == 0 {
		return 0
	}
	return a - 1
}

// withinMag is the contract bound check |x| <= filter.MaxMag folded
// into one unsigned comparison (biasing maps the valid range onto
// [0, 2·MaxMag]). Not abs-based: absInt64(MinInt64) overflows back to
// MinInt64 and would wrongly admit the int64 extremes.
func withinMag(x int64) bool {
	return uint64(x+filter.MaxMag) <= 2*filter.MaxMag
}

// inContractVals2 reports whether the triangle's vertex values obey the
// fixed-point magnitude contract the int64 fast path is proven against.
func inContractVals2(u, v []int64, a, b, last int) bool {
	return withinMag(u[a]) && withinMag(v[a]) &&
		withinMag(u[b]) && withinMag(v[b]) &&
		withinMag(u[last]) && withinMag(v[last])
}

// inContractVals3 is the tetrahedron analogue of inContractVals2, with
// the 3D derivation's admission range [-2^22, 2^22) — the same range
// the filter admits, and one every int64 form on the fast path is
// exact over (Det4H and the translated denominators by the hdet.go
// bounds, the Det2 drop denominators and Det3 minors with products
// below 2^44). Branchless: one biased fold decides all twelve values;
// everything the fixed-point transform emits (|x| <= 2^21) passes.
func inContractVals3(u, v, w []int64, vs *[4]int) bool {
	const B = 1 << 22
	or := uint64(u[vs[0]]+B) | uint64(v[vs[0]]+B) | uint64(w[vs[0]]+B) |
		uint64(u[vs[1]]+B) | uint64(v[vs[1]]+B) | uint64(w[vs[1]]+B) |
		uint64(u[vs[2]]+B) | uint64(v[vs[2]]+B) | uint64(w[vs[2]]+B) |
		uint64(u[vs[3]]+B) | uint64(v[vs[3]]+B) | uint64(w[vs[3]]+B)
	return or>>23 == 0
}

// psi2DWide is the arbitrary-precision evaluation of Lemma 3 for inputs
// outside the magnitude contract, where the int64 (and the historical
// Int128 Det2-minor) arithmetic could overflow. Cold by construction:
// the fixed-point transform never produces such values.
func psi2DWide(u, v []int64, a, b, last int) int64 {
	lam := [][]int64{
		{u[a], v[a], 1},
		{u[b], v[b], 1},
		{u[last], v[last], 1},
	}
	denom := new(big.Int).Add(absDiffBig(v[a], v[b]), absDiffBig(u[a], u[b]))
	best := psiFromPartsBig(exact.DetBig(lam), denom)
	for _, o := range [2]int{b, a} {
		det := exact.Det2Wide(u[o], v[o], u[last], v[last])
		d := new(big.Int).Add(absBig(u[o]), absBig(v[o]))
		if psi := psiFromPartsBig(bigFromInt128(det), d); psi < best {
			best = psi
		}
	}
	return best
}

// psi3DWide is the arbitrary-precision evaluation of Lemma 4 for inputs
// outside the magnitude contract. cap bounds the result like Psi3D.
func psi3DWide(u, v, w []int64, vs *[4]int, cap int64) int64 {
	last := vs[3]
	lam := make([][]int64, 4)
	for r, vi := range vs {
		lam[r] = []int64{u[vi], v[vi], w[vi], 1}
	}
	denom := new(big.Int)
	for _, cols := range [3][2][]int64{{v, w}, {u, w}, {u, v}} {
		m := make([][]int64, 3)
		for r := 0; r < 3; r++ {
			vi := vs[r]
			m[r] = []int64{cols[0][vi], cols[1][vi], 1}
		}
		denom.Add(denom, new(big.Int).Abs(exact.DetBig(m)))
	}
	best := psiFromPartsBig(exact.DetBig(lam), denom)
	if cap < best {
		best = cap
	}
	for drop := 0; drop < 3; drop++ {
		var rows [2]int
		k := 0
		for r := 0; r < 3; r++ {
			if r != drop {
				rows[k] = vs[r]
				k++
			}
		}
		m3 := [][]int64{
			{u[rows[0]], v[rows[0]], w[rows[0]]},
			{u[rows[1]], v[rows[1]], w[rows[1]]},
			{u[last], v[last], w[last]},
		}
		d := new(big.Int)
		for _, cols := range [3][2][]int64{{v, w}, {u, w}, {u, v}} {
			m2 := new(big.Int).Abs(bigFromInt128(exact.Det2Wide(
				cols[0][rows[0]], cols[1][rows[0]], cols[0][rows[1]], cols[1][rows[1]])))
			d.Add(d, m2)
		}
		if psi := psiFromPartsBig(exact.DetBig(m3), d); psi < best {
			best = psi
		}
	}
	return best
}

func absBig(x int64) *big.Int {
	return new(big.Int).Abs(big.NewInt(x))
}

func absDiffBig(x, y int64) *big.Int {
	return new(big.Int).Abs(new(big.Int).Sub(big.NewInt(x), big.NewInt(y)))
}

func bigFromInt128(v exact.Int128) *big.Int {
	neg := v.Hi < 0
	a := v.Abs()
	out := new(big.Int).SetUint64(uint64(a.Hi))
	out.Lsh(out, 64)
	out.Or(out, new(big.Int).SetUint64(a.Lo))
	if neg {
		out.Neg(out)
	}
	return out
}

// psiFromPartsBig is psiFromParts over arbitrary-precision parts,
// saturating at Unbounded when the quotient exceeds int64.
func psiFromPartsBig(det, denom *big.Int) int64 {
	if det.Sign() == 0 {
		return 0
	}
	if denom.Sign() == 0 {
		return Unbounded
	}
	q := new(big.Int).Abs(det)
	q.Sub(q, big.NewInt(1))
	q.Quo(q, denom)
	if !q.IsInt64() {
		return Unbounded
	}
	return q.Int64()
}

// psiFromParts64 is psiFromParts specialized to determinants already
// known exact in int64 (the translated 2D forms).
func psiFromParts64(det, denom int64) int64 {
	if det == 0 {
		return 0
	}
	if denom == 0 {
		return Unbounded
	}
	return (absInt64(det) - 1) / denom
}

// psiFromParts computes ⌊(|det|−1)/denom⌋ with the degenerate and
// unconstrained cases of Theorem 1.
func psiFromParts(det exact.Int128, denom int64) int64 {
	if det.IsZero() {
		return 0
	}
	if denom == 0 {
		return Unbounded
	}
	return det.Abs().Sub(exact.Int128FromInt64(1)).DivFloor64(denom)
}

func absInt64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

func absInt128(v exact.Int128) int64 {
	a, ok := v.Abs().Int64()
	if !ok {
		return math.MaxInt64
	}
	return a
}
