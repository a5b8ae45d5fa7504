// Package filter implements certified filtered sign-of-determinant
// predicates: cheap floating-point stages that either *prove* the sign
// of an exact integer determinant or decline, falling back to the
// arbitrary-precision path in internal/exact. A sign is only ever
// accepted when it is certified — by an exact integer evaluation, by a
// float evaluation whose provable rounding error is smaller than the
// distance to zero, or by the internal/exact fallback itself — so the
// filter changes predicate *speed*, never predicate *results*. The
// `floatflow` topolint analyzer machine-checks this contract: every
// exported sign predicate here must reach internal/exact on its
// fallback path, and the certified float stages may only publish their
// sign through the ok-guard pattern.
//
// internal/exact itself stays float-free (enforced by the same
// analyzer); this package is deliberately a subpackage so the float
// stages live outside that invariant while the fallback lives inside it.
//
// Each predicate has one form. The orientation signs are
// Local.Orient2Sign and Local.Orient3Sign; the Ψ-quotient certificates
// of the 3D derivation are Psi3.OrientAtLeast and Psi3.DropsAtLeast over
// a tetrahedron admitted once by Psi3.Load. All of them count into a
// caller-owned Local, which the caller flushes into the process-wide
// counters that Stats reads.
//
// # Error-bound derivation
//
// All hot-path inputs obey the fixed-point magnitude contract
// |entry| <= 2^21 (package fixed keeps transformed values at or below
// 2^20; relaxation and speculation headroom stay within one extra bit).
// Each stage however *admits* the full range its exactness or error
// proof supports — wider than the contract — so the admission test in
// front of every predicate is a single branchless biased-unsigned fold
// (see inContract2) and contract-conforming inputs always pass it.
// Orientation matrices additionally carry a homogeneous last column of
// ones, so translation by the last row (exact in int64) reduces them to
// 2×2 / 3×3 difference matrices:
//
//   - 2D orientation (admission [-2^30, 2^30)): the translated
//     differences are below 2^31, the two products below 2^62, their
//     difference inside int64. Plain int64 arithmetic is exact over the
//     whole admitted range — the "filter" for 2D is an exact integer
//     fast path that always certifies.
//
//   - 3D orientation (admission [-2^22, 2^22)): the translated 3×3 is
//     evaluated in float64. Conversions of the int64 differences
//     (< 2^23) are exact; the 2×2 minors (products < 2^46, differences
//     < 2^47 < 2^53) are exact; only the three term products
//     t_i = dx_i·minor_i (< 2^70) and the two additions round. Each
//     rounding is at most u·|value| with u = 2^-53, so
//     |det_f - det| <= 3u·(|t0|+|t1|+|t2|) exactly as in the classic
//     FPG/Shewchuk static-filter analysis. We use:
//
//     stage A (static):  accept sign(det_f) if |det_f| > 2^21
//     (3u·3·2^70 = 9·2^17 < 2^21, a safe constant bound)
//     stage B (running): accept sign(det_f) if |det_f| > errB with
//     errB = (|t0|+|t1|+|t2|)·2^-48 (margin >10× over 3u
//     to absorb the rounding of errB itself)
//     zero stage:        if errB < 0.5 the true determinant lies within
//     (-1, 1) and is therefore exactly 0 — a
//     *certified* degenerate, handed to SoS
//     fallback:          exact.Det4H (int128), then SoS on true zero
//
// Inputs outside the admission range (possible only through library
// misuse or adversarial tests, never through the fixed-point transform)
// are detected up front and routed to exact.DetSignWide, which is total
// over int64.
package filter

import (
	"sync/atomic"

	"repro/internal/exact"
)

// MaxMag is the fixed-point magnitude contract of the compression
// pipeline: |entry| <= MaxMag. It is 2× fixed.MaxMagnitude, leaving the
// transform's relaxation/speculation headroom inside the contract
// (mirrored in internal/exact's determinant documentation).
const MaxMag = 1 << 21

// The admission bounds below are deliberately *wider* than MaxMag: each
// stage admits the full range its own exactness/error proof supports,
// so the admission check — which runs in front of every predicate call —
// can be a single biased-unsigned fold instead of a per-entry contract
// scan, and contract-conforming inputs sit far inside it.

// orient2Admit is the 2D fast-path admission bound: entries in
// [-2^30, 2^30). The translated differences are then below 2^31, the
// two products below 2^62, and their difference inside int64 — the
// int64 evaluation is exact over the whole admitted range.
const orient2Admit = 1 << 30

// orient3Admit is the 3D float-stage admission bound: entries in
// [-2^22, 2^22). Differences stay below 2^23, the 2×2 minors (products
// < 2^46, sums < 2^47 < 2^53) are exact in float64, and the three
// cofactor terms are below 2^70 — the range the error constants below
// are proven for.
const orient3Admit = 1 << 22

// orient3Static is the stage-A static error bound for the translated
// 3D orientation evaluation under orient3Admit:
// 3u·3·2^70 = 9·2^17 < 2^21.
const orient3Static = 1 << 21

// runEps is the stage-B running-error coefficient, shared by the
// translated 3D orientation (terms < 2^70) and the raw 3×3 drop
// matrices of the Ψ derivation (entries < 2^22, minors exact < 2^45,
// terms < 2^67). The true forward error of t0 − t1 + t2 is
// <= 3u·(|t0|+|t1|+|t2|) with u = 2^-53; 2^-48 leaves a >10× margin
// that also covers the rounding incurred computing the error bound
// itself.
const runEps = 1.0 / (1 << 48)

// counters tracks filter efficacy. All fields are monotonic totals,
// updated atomically; Stats returns a copy safe to diff across a
// run. The accounting identity per predicate family is
// calls = sum(accept stages) + exact + wide.
type counters struct {
	// 2D orientation (translated int64 fast path).
	orient2Fast atomic.Uint64 // exact int64 fast path certified a sign (or zero)
	orient2Zero atomic.Uint64 // ... of which certified exact zero (degenerate → SoS)
	orient2Wide atomic.Uint64 // contract violation → exact.DetSignWide

	// 3D orientation (float stages over the translated 3×3).
	orient3Static atomic.Uint64 // stage A static-bound accept
	orient3Run    atomic.Uint64 // stage B running-error accept
	orient3Zero   atomic.Uint64 // certified exact zero (degenerate → SoS)
	orient3Exact  atomic.Uint64 // inconclusive → exact.Det4H fallback
	orient3Wide   atomic.Uint64 // contract violation → exact.DetSignWide

	// Ψ-derivation quotient certification (floor((|det|-1)/denom) >= cap).
	psiCert     atomic.Uint64 // float stage certified the capped bound
	psiFallback atomic.Uint64 // inconclusive → exact determinant evaluation
}

// Snapshot is a plain-value copy of the filter counters.
type Snapshot struct {
	Orient2Fast uint64 `json:"orient2_fast"`
	Orient2Zero uint64 `json:"orient2_zero"`
	Orient2Wide uint64 `json:"orient2_wide"`

	Orient3Static uint64 `json:"orient3_static"`
	Orient3Run    uint64 `json:"orient3_run"`
	Orient3Zero   uint64 `json:"orient3_zero"`
	Orient3Exact  uint64 `json:"orient3_exact"`
	Orient3Wide   uint64 `json:"orient3_wide"`

	PsiCert     uint64 `json:"psi_cert"`
	PsiFallback uint64 `json:"psi_fallback"`
}

var ctr counters

// Stats returns a snapshot of the process-wide filter counters.
func Stats() Snapshot {
	return Snapshot{
		Orient2Fast:   ctr.orient2Fast.Load(),
		Orient2Zero:   ctr.orient2Zero.Load(),
		Orient2Wide:   ctr.orient2Wide.Load(),
		Orient3Static: ctr.orient3Static.Load(),
		Orient3Run:    ctr.orient3Run.Load(),
		Orient3Zero:   ctr.orient3Zero.Load(),
		Orient3Exact:  ctr.orient3Exact.Load(),
		Orient3Wide:   ctr.orient3Wide.Load(),
		PsiCert:       ctr.psiCert.Load(),
		PsiFallback:   ctr.psiFallback.Load(),
	}
}

// Sub returns s - prev field-wise, for diffing across a run.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	return Snapshot{
		Orient2Fast:   s.Orient2Fast - prev.Orient2Fast,
		Orient2Zero:   s.Orient2Zero - prev.Orient2Zero,
		Orient2Wide:   s.Orient2Wide - prev.Orient2Wide,
		Orient3Static: s.Orient3Static - prev.Orient3Static,
		Orient3Run:    s.Orient3Run - prev.Orient3Run,
		Orient3Zero:   s.Orient3Zero - prev.Orient3Zero,
		Orient3Exact:  s.Orient3Exact - prev.Orient3Exact,
		Orient3Wide:   s.Orient3Wide - prev.Orient3Wide,
		PsiCert:       s.PsiCert - prev.PsiCert,
		PsiFallback:   s.PsiFallback - prev.PsiFallback,
	}
}

// Orient3Calls returns the total number of 3D orientation predicate
// evaluations in the snapshot.
func (s Snapshot) Orient3Calls() uint64 {
	return s.Orient3Static + s.Orient3Run + s.Orient3Zero + s.Orient3Exact + s.Orient3Wide
}

// Orient3AcceptRate returns the fraction of 3D orientation calls the
// float stages certified without exact fallback (certified zeros count
// as accepts: the filter *proved* degeneracy; SoS work after that is
// inherent, not filter failure). Returns 1 when there were no calls.
func (s Snapshot) Orient3AcceptRate() float64 {
	n := s.Orient3Calls()
	if n == 0 {
		return 1
	}
	return float64(s.Orient3Static+s.Orient3Run+s.Orient3Zero) / float64(n)
}

// PsiCertRate returns the fraction of capped-Ψ quotient checks the
// float stage certified. Returns 1 when there were no calls.
func (s Snapshot) PsiCertRate() float64 {
	n := s.PsiCert + s.PsiFallback
	if n == 0 {
		return 1
	}
	return float64(s.PsiCert) / float64(n)
}

// Map returns the snapshot as metric-name → value pairs, using
// lowercase dotted names suitable for telemetry counters.
func (s Snapshot) Map() map[string]uint64 {
	return map[string]uint64{
		"exact.filter.orient2_fast":   s.Orient2Fast,
		"exact.filter.orient2_zero":   s.Orient2Zero,
		"exact.filter.orient2_wide":   s.Orient2Wide,
		"exact.filter.orient3_static": s.Orient3Static,
		"exact.filter.orient3_run":    s.Orient3Run,
		"exact.filter.orient3_zero":   s.Orient3Zero,
		"exact.filter.orient3_exact":  s.Orient3Exact,
		"exact.filter.orient3_wide":   s.Orient3Wide,
		"exact.filter.psi_cert":       s.PsiCert,
		"exact.filter.psi_fallback":   s.PsiFallback,
	}
}

// inContract2 reports whether a homogeneous 3×3 orientation matrix is
// admitted by the exact 2D fast path: data entries in [-2^30, 2^30)
// and a last column of ones (SoS-replaced rows are (0,0,1) and satisfy
// both). Branchless: biasing by orient2Admit maps every admitted entry
// onto [0, 2^31) and every other int64 — including the extremes, whose
// two's-complement abs would overflow back negative and fool an
// abs-based check — onto a value with a bit at or above position 31,
// so one OR-fold and one shift decide all six entries, and the XOR
// ones-check folds into the same comparison.
func inContract2(m *[3][3]int64) bool {
	or := uint64(m[0][0]+orient2Admit) | uint64(m[0][1]+orient2Admit) |
		uint64(m[1][0]+orient2Admit) | uint64(m[1][1]+orient2Admit) |
		uint64(m[2][0]+orient2Admit) | uint64(m[2][1]+orient2Admit)
	ones := uint64(m[0][2]^1) | uint64(m[1][2]^1) | uint64(m[2][2]^1)
	return (or>>31)|ones == 0
}

// inContract3 is the 4×4 homogeneous analogue of inContract2 with the
// 3D admission bound: entries in [-2^22, 2^22), biased onto [0, 2^23).
func inContract3(m *[4][4]int64) bool {
	or := uint64(m[0][0]+orient3Admit) | uint64(m[0][1]+orient3Admit) | uint64(m[0][2]+orient3Admit) |
		uint64(m[1][0]+orient3Admit) | uint64(m[1][1]+orient3Admit) | uint64(m[1][2]+orient3Admit) |
		uint64(m[2][0]+orient3Admit) | uint64(m[2][1]+orient3Admit) | uint64(m[2][2]+orient3Admit) |
		uint64(m[3][0]+orient3Admit) | uint64(m[3][1]+orient3Admit) | uint64(m[3][2]+orient3Admit)
	ones := uint64(m[0][3]^1) | uint64(m[1][3]^1) | uint64(m[2][3]^1) | uint64(m[3][3]^1)
	return (or>>23)|ones == 0
}

func sgn64(x int64) int {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	}
	return 0
}

// orient3Float runs stages A, B and the certified-zero stage over the
// translated 3×3, counting the accepting stage into l. ok is false when
// the filter is inconclusive or the input is out of contract; nothing
// is counted then, the caller's fallback books the call.
func orient3Float(m *[4][4]int64, l *Local) (int, bool) {
	if !inContract3(m) {
		return 0, false
	}
	// Exact int64 translation, exact float64 conversion (< 2^23),
	// exact minors (< 2^47 < 2^53); only t_i and the sums round.
	x0 := float64(m[0][0] - m[3][0])
	y0 := float64(m[0][1] - m[3][1])
	z0 := float64(m[0][2] - m[3][2])
	x1 := float64(m[1][0] - m[3][0])
	y1 := float64(m[1][1] - m[3][1])
	z1 := float64(m[1][2] - m[3][2])
	x2 := float64(m[2][0] - m[3][0])
	y2 := float64(m[2][1] - m[3][1])
	z2 := float64(m[2][2] - m[3][2])
	t0 := x0 * (y1*z2 - z1*y2)
	t1 := x1 * (y0*z2 - z0*y2)
	t2 := x2 * (y0*z1 - z0*y1)
	det := t0 - t1 + t2
	adet := det
	if adet < 0 {
		adet = -adet
	}
	// Stage A: constant static bound.
	if adet > orient3Static {
		l.Orient3Static++
		return signFloat(det), true
	}
	// Stage B: running error bound from the actual term magnitudes.
	at0, at1, at2 := t0, t1, t2
	if at0 < 0 {
		at0 = -at0
	}
	if at1 < 0 {
		at1 = -at1
	}
	if at2 < 0 {
		at2 = -at2
	}
	errB := (at0 + at1 + at2) * runEps
	if adet > errB {
		l.Orient3Run++
		return signFloat(det), true
	}
	// Certified zero: the true integer determinant lies in
	// [det-errB, det+errB] ⊆ (-1, 1), so it is exactly 0.
	if errB+adet < 0.5 {
		l.Orient3Zero++
		return 0, true
	}
	return 0, false
}

// signFloat returns the sign of a float already certified nonzero.
func signFloat(x float64) int {
	if x > 0 {
		return 1
	}
	return -1
}

// quotGuard is the multiplicative safety factor applied when comparing
// the certified determinant lower bound against cap·denom. The true
// accumulated relative rounding error of the comparison arithmetic is
// below 2^-50; 2^-40 dwarfs it while rejecting only quotients within
// one part in 2^40 of the boundary (those fall back to exact).
const quotGuard = 1.0 / (1 << 40)

// quotAtLeast reports whether |det| >= cap·denom + 1 can be certified
// given a float evaluation detf with forward error <= errB. All guards
// are conservative: a false return is always safe (callers fall back
// to the exact path), a true return is a proof.
func quotAtLeast(adet, errB float64, denom, cap int64) bool {
	if cap < 0 || denom < 0 || cap >= 1<<52 || denom >= 1<<52 {
		return false
	}
	rhs := float64(cap) * float64(denom) // both conversions exact (< 2^52)
	lhs := (adet - errB - 1) * (1 - quotGuard)
	return lhs >= rhs+rhs*quotGuard
}

// termsAtLeast finishes one quotient certification from the three
// cofactor terms of a 3×3 determinant: det = t0 − t1 + t2 with forward
// error at most (|t0|+|t1|+|t2|)·runEps.
func termsAtLeast(t0, t1, t2 float64, denom, cap int64) bool {
	det := t0 - t1 + t2
	if det < 0 {
		det = -det
	}
	if t0 < 0 {
		t0 = -t0
	}
	if t1 < 0 {
		t1 = -t1
	}
	if t2 < 0 {
		t2 = -t2
	}
	return quotAtLeast(det, (t0+t1+t2)*runEps, denom, cap)
}

// Psi3 is the per-tetrahedron state of the Ψ-derivation filter: the
// float64 images of the four vertex data rows, admitted and converted
// once by Load and then shared by the orientation certification and the
// three drop-matrix certifications of one Lemma-4 evaluation. The int64
// → float64 conversions dominate the cost of a quotient certification,
// and the four candidate matrices of a tetrahedron are built from the
// same twelve values, so they are converted once, not per candidate.
//
// Soundness: Load checks the admission range on the integer entries,
// conversions of admitted entries are exact (< 2^23 ≪ 2^53), and every
// certification goes through quotAtLeast with the runEps error bound.
// A certification answers "floor((|det|−1)/denom) >= cap" with a proof
// or declines; a decline means "not certified", never "false", and the
// caller then evaluates exactly.
type Psi3 struct {
	f  [4][3]float64
	ok bool
}

// Load admits and converts the tetrahedron's homogeneous 4×4 (vertex
// rows (u, v, w, 1)). If any entry is outside the 3D admission range —
// or the last column is not all ones — every subsequent certification
// declines and the caller's exact evaluations take over.
func (p *Psi3) Load(lam *[4][4]int64) {
	p.ok = inContract3(lam)
	if !p.ok {
		return
	}
	for r := 0; r < 4; r++ {
		p.f[r][0] = float64(lam[r][0])
		p.f[r][1] = float64(lam[r][1])
		p.f[r][2] = float64(lam[r][2])
	}
}

// OrientAtLeast certifies floor((|det lam|−1)/denom) >= cap for the
// homogeneous 4×4 passed to Load, counting the outcome into loc.
func (p *Psi3) OrientAtLeast(loc *Local, denom, cap int64) bool {
	if !p.ok {
		loc.PsiFallback++
		return false
	}
	// Translation in float64 is exact: differences of integers below
	// 2^23 are integers below 2^24 < 2^53. The 2×2 minors (< 2^47) are
	// exact too; only the three terms (< 2^70) and their sums round.
	f0, f1, f2, f3 := &p.f[0], &p.f[1], &p.f[2], &p.f[3]
	x0, y0, z0 := f0[0]-f3[0], f0[1]-f3[1], f0[2]-f3[2]
	x1, y1, z1 := f1[0]-f3[0], f1[1]-f3[1], f1[2]-f3[2]
	x2, y2, z2 := f2[0]-f3[0], f2[1]-f3[1], f2[2]-f3[2]
	if termsAtLeast(x0*(y1*z2-z1*y2), x1*(y0*z2-z0*y2), x2*(y0*z1-z0*y1), denom, cap) {
		loc.PsiCert++
		return true
	}
	loc.PsiFallback++
	return false
}

// DropsAtLeast certifies the three drop matrices of the loaded
// tetrahedron in one pass against the same cap, counting the three
// outcomes into loc and returning a bit mask: bit k set ⟺ drop k
// certified floor((|det_k|−1)/d[k]) >= cap. Drop k is the raw 3×3 with
// data rows (i, j, 3), (i,j) = (1,2), (0,2), (0,1) for k = 0, 1, 2 —
// the Lemma-4 drop order, with the perturbed vertex in row three.
// Drops 0 and 1 share the cross product of rows (f2, f3). Certifying
// against the caller's entry cap is sound even when a fallback between
// drops lowers the running min: the certified bound only gets stronger
// relative to a smaller cap.
func (p *Psi3) DropsAtLeast(loc *Local, d *[3]int64, cap int64) uint32 {
	var mask uint32
	if p.ok {
		f0, f1, f2, f3 := &p.f[0], &p.f[1], &p.f[2], &p.f[3]
		// Cofactor columns of the shared third row f3: c(r, f3) holds
		// the three 2×2 minors of rows (r, f3), so det(q, r, f3) =
		// q[0]·cx − q[1]·cy + q[2]·cz. Products < 2^44, minors < 2^45
		// exact, terms < 2^67 — the runEps bound applies per drop.
		c23x := f2[1]*f3[2] - f2[2]*f3[1]
		c23y := f2[0]*f3[2] - f2[2]*f3[0]
		c23z := f2[0]*f3[1] - f2[1]*f3[0]
		c13x := f1[1]*f3[2] - f1[2]*f3[1]
		c13y := f1[0]*f3[2] - f1[2]*f3[0]
		c13z := f1[0]*f3[1] - f1[1]*f3[0]
		if termsAtLeast(f1[0]*c23x, f1[1]*c23y, f1[2]*c23z, d[0], cap) {
			mask |= 1
		}
		if termsAtLeast(f0[0]*c23x, f0[1]*c23y, f0[2]*c23z, d[1], cap) {
			mask |= 2
		}
		if termsAtLeast(f0[0]*c13x, f0[1]*c13y, f0[2]*c13z, d[2], cap) {
			mask |= 4
		}
	}
	certs := uint64(mask&1 + mask>>1&1 + mask>>2&1)
	loc.PsiCert += certs
	loc.PsiFallback += 3 - certs
	return mask
}

// Local is a goroutine-local batch of filter counters, and the receiver
// of every predicate in this package. The process-wide counters are
// atomic, and on this package's hottest paths — the cache-blocked
// detection sweeps and the per-vertex Ψ derivation — a LOCK-prefixed add
// per predicate costs more than the certified stage it is accounting
// for. A caller that owns a predicate loop keeps a Local on its stack
// (or per worker), calls the predicates on it (plain increments), and
// Flushes once per batch, merging into the process-wide totals with a
// handful of atomic adds. The accounting identity calls = sum(stages)
// holds exactly per Local and therefore globally after every Flush. A
// Local must not be nil.
type Local struct {
	Snapshot
}

// Flush merges the batched counts into the process-wide counters and
// resets the Local for reuse.
func (l *Local) Flush() {
	s := l.Snapshot
	l.Snapshot = Snapshot{}
	if s.Orient2Fast != 0 {
		ctr.orient2Fast.Add(s.Orient2Fast)
	}
	if s.Orient2Zero != 0 {
		ctr.orient2Zero.Add(s.Orient2Zero)
	}
	if s.Orient2Wide != 0 {
		ctr.orient2Wide.Add(s.Orient2Wide)
	}
	if s.Orient3Static != 0 {
		ctr.orient3Static.Add(s.Orient3Static)
	}
	if s.Orient3Run != 0 {
		ctr.orient3Run.Add(s.Orient3Run)
	}
	if s.Orient3Zero != 0 {
		ctr.orient3Zero.Add(s.Orient3Zero)
	}
	if s.Orient3Exact != 0 {
		ctr.orient3Exact.Add(s.Orient3Exact)
	}
	if s.Orient3Wide != 0 {
		ctr.orient3Wide.Add(s.Orient3Wide)
	}
	if s.PsiCert != 0 {
		ctr.psiCert.Add(s.PsiCert)
	}
	if s.PsiFallback != 0 {
		ctr.psiFallback.Add(s.PsiFallback)
	}
}

// Orient2Sign returns the exact sign of a homogeneous 3×3 orientation
// determinant (last column ones). For admitted entries (well beyond the
// magnitude contract, see inContract2) the translated 2×2 evaluation is
// exact in int64 and always certifies; anything else falls back to the
// wide exact path. A zero return is a *certified* exact zero — callers
// resolve it with SoS.
func (l *Local) Orient2Sign(m *[3][3]int64) int {
	if !inContract2(m) {
		l.Orient2Wide++
		rows := [][]int64{m[0][:], m[1][:], m[2][:]}
		return exact.DetSignWide(rows)
	}
	l.Orient2Fast++
	s := sgn64(exact.Det3H(m))
	if s == 0 {
		l.Orient2Zero++
	}
	return s
}

// Orient3Sign returns the exact sign of a homogeneous 4×4 orientation
// determinant (last column ones). The float stages certify the common
// cases; inconclusive cases fall back to the exact int128 evaluation,
// and out-of-contract inputs to the wide exact path. A zero return is
// a *certified* exact zero — callers resolve it with SoS.
func (l *Local) Orient3Sign(m *[4][4]int64) int {
	if s, ok := orient3Float(m, l); ok {
		return s
	}
	if !inContract3(m) {
		l.Orient3Wide++
		rows := [][]int64{m[0][:], m[1][:], m[2][:], m[3][:]}
		return exact.DetSignWide(rows)
	}
	l.Orient3Exact++
	return exact.Det4H(m).Sign()
}
