package exact

import (
	"sort"

	"repro/internal/safedim"
)

// Simulation of Simplicity (Edelsbrunner & Mücke, ACM TOG 1990).
//
// When an orientation determinant is exactly zero the point-in-simplex test
// is ambiguous: depending on evaluation order a critical point sitting on a
// cell boundary may be reported by both neighbouring cells or by neither.
// SoS resolves every such tie deterministically by evaluating the sign of
// the determinant of a symbolically perturbed matrix, where data entry
// (vertex g, component c) is perturbed by ε^(2^idx) with a globally unique
// index idx. For sufficiently small ε > 0 the perturbed determinant is
// nonzero and its sign is the coefficient of the lowest-order surviving
// monomial — which this package finds by enumerating the partial matchings
// of perturbable entries in increasing ε-order and returning the first
// nonzero mixed partial derivative (a minor of the original matrix).
//
// Because the perturbation is attached to global (vertex, component) pairs,
// two cells sharing a vertex always see the same perturbed value, so the
// resolved detection result is globally consistent: a critical point on a
// shared face is reported by exactly one of the incident simplices.

// SoSSign returns the sign of det(m) under Simulation of Simplicity.
// m is an n×n matrix (n <= 4 in this repository); pert has the same shape
// and holds the global perturbation index for each perturbable entry, or
// -1 for entries that are exact by construction (the homogeneous column of
// ones and the query point's row).
//
// The result is never 0 as long as some transversal of perturbable entries
// exists whose complementary minor is nonzero — true for every orientation
// matrix built by package cp.
func SoSSign(m [][]int64, pert [][]int) int {
	if s := detSignN(m); s != 0 {
		return s
	}
	subsets := perturbationSubsets(pert)
	n := len(m)
	work := make([][]int64, n)
	rowbuf := make([]int64, safedim.MustProduct(n, n))
	for i := range work {
		work[i] = rowbuf[i*n : (i+1)*n]
	}
	for _, s := range subsets {
		for r := 0; r < n; r++ {
			copy(work[r], m[r])
		}
		for _, p := range s.positions {
			for c := 0; c < n; c++ {
				work[p.r][c] = 0
			}
			work[p.r][p.c] = 1
		}
		if sg := detSignN(work); sg != 0 {
			return sg
		}
	}
	return 0
}

type matchPos struct{ r, c int }

type matching struct {
	positions []matchPos
	// indices holds the global perturbation indices, sorted descending,
	// used to order matchings by the magnitude of their ε-monomial.
	indices []int
}

// perturbationSubsets enumerates every nonempty partial matching of
// perturbable positions (distinct rows; duplicate columns are allowed and
// simply yield zero minors) ordered by increasing ε-exponent, i.e. the
// order in which SoS inspects the mixed partial derivatives.
func perturbationSubsets(pert [][]int) []matching {
	n := len(pert)
	var all []matching
	var rec func(row int, cur []matchPos)
	rec = func(row int, cur []matchPos) {
		if row == n {
			if len(cur) > 0 {
				pos := make([]matchPos, len(cur))
				copy(pos, cur)
				idx := make([]int, len(cur))
				for i, p := range cur {
					idx[i] = pert[p.r][p.c]
				}
				sort.Sort(sort.Reverse(sort.IntSlice(idx)))
				all = append(all, matching{positions: pos, indices: idx})
			}
			return
		}
		// Skip this row.
		rec(row+1, cur)
		// Or perturb one entry of this row.
		for c := range pert[row] {
			if pert[row][c] >= 0 {
				rec(row+1, append(cur, matchPos{row, c}))
			}
		}
	}
	rec(0, nil)
	sort.Slice(all, func(i, j int) bool {
		return lessEps(all[i].indices, all[j].indices)
	})
	return all
}

// lessEps reports whether the ε-monomial with exponent Σ 2^a[i] is larger
// (i.e. earlier in SoS order) than the one with exponent Σ 2^b[i].
// A larger monomial corresponds to a smaller exponent bitset, compared as
// binary numbers via the descending-sorted index lists.
func lessEps(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// Tie-only orientation SoS.
//
// The detectors call SoS only after their certified filter has proven
// the orientation determinant exactly zero, so the tie entry points below
// skip the determinant entirely and walk a plan table built once at
// package init. Row r of an orientation matrix carries the data of vertex
// ids[r] (perturbation index of entry (r,c) is ids[r]*(n-1)+c for the n-1
// data columns; the ones column is exact), and row `replace` (or none if
// -1) is the unperturbed origin row.
//
// Because the perturbation indices are an order-preserving function of
// the vertex ids, the ε-order of the matchings depends only on the *rank
// pattern* of the ids and on `replace`: the table holds, per (n, replace,
// rank pattern), the matchings perturbationSubsets yields in SoS order,
// pruned twice (see THEORY.md §4):
//
//   - a matching with two positions in one column is dropped — its work
//     matrix has two equal unit rows, so its determinant is zero and SoS
//     always passes over it;
//   - the list ends at its first full transversal — every data column is
//     matched, the complementary minor is the 1×1 ones-column entry, so
//     that step always decides and nothing after it is ever reached.
//
// Each plan is stored as its complementary minor: the unmatched rows,
// the unmatched data columns (the ones column is never matched, so every
// minor keeps it) and the sign relating the work matrix's determinant to
// the minor's. A step therefore costs a constant (order 1), one
// difference of two entries (order 2, [[a,1],[b,1]]) or one homogeneous
// Det3H (order 3), never a copied n×n determinant.

// tiePlan is one precomputed SoS step: det(work) = sign·det(minor), where
// the minor takes rows[:k] and data columns cols[:k-1] plus the ones
// column.
type tiePlan struct {
	sign int8
	k    uint8
	rows [3]uint8
	cols [2]uint8
}

// The plan tables, indexed by [replace+1][rank pattern]; the rank pattern
// is the pairwise order code of order3/order4.
var (
	tie2 [4][8][]tiePlan
	tie3 [5][64][]tiePlan
)

func init() {
	for _, rank := range permutations(3) {
		code := order3((*[3]int)(rank))
		for replace := -1; replace < 3; replace++ {
			tie2[replace+1][code] = buildTiePlans(3, replace, rank)
		}
	}
	for _, rank := range permutations(4) {
		code := order4((*[4]int)(rank))
		for replace := -1; replace < 4; replace++ {
			tie3[replace+1][code] = buildTiePlans(4, replace, rank)
		}
	}
}

// order3 returns the pairwise order code of three distinct ids: bit b is
// set when the b-th pair of (0,1), (0,2), (1,2) is ascending. It is a
// bijection from the six rank patterns onto six of the eight codes.
func order3(ids *[3]int) uint8 {
	var code uint8
	if ids[0] < ids[1] {
		code |= 1
	}
	if ids[0] < ids[2] {
		code |= 2
	}
	if ids[1] < ids[2] {
		code |= 4
	}
	return code
}

// order4 is order3 for four ids over the pairs (0,1), (0,2), (0,3),
// (1,2), (1,3), (2,3).
func order4(ids *[4]int) uint8 {
	var code uint8
	if ids[0] < ids[1] {
		code |= 1
	}
	if ids[0] < ids[2] {
		code |= 2
	}
	if ids[0] < ids[3] {
		code |= 4
	}
	if ids[1] < ids[2] {
		code |= 8
	}
	if ids[1] < ids[3] {
		code |= 16
	}
	if ids[2] < ids[3] {
		code |= 32
	}
	return code
}

// permutations returns every permutation of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for at := 0; at <= len(p); at++ {
			q := make([]int, 0, n)
			q = append(q, p[:at]...)
			q = append(q, n-1)
			q = append(q, p[at:]...)
			out = append(out, q)
		}
	}
	return out
}

// orientPert returns the SoSSign perturbation index matrix of an n×n
// orientation matrix whose rows carry vertex ids[r]. Called with the ids'
// ranks it yields surrogate indices in the same relative order as the
// true global ones.
func orientPert(n, replace int, ids []int) [][]int {
	pert := make([][]int, n)
	for r := range pert {
		pert[r] = make([]int, n)
		for c := range pert[r] {
			if r == replace || c == n-1 {
				pert[r][c] = -1
			} else {
				pert[r][c] = ids[r]*(n-1) + c
			}
		}
	}
	return pert
}

// buildTiePlans returns the pruned, ε-ordered plan list for one
// (n, replace, rank pattern).
func buildTiePlans(n, replace int, rank []int) []tiePlan {
	var plans []tiePlan
	for _, s := range perturbationSubsets(orientPert(n, replace, rank)) {
		p, ok := tiePlanOf(n, s.positions)
		if !ok {
			continue
		}
		plans = append(plans, p)
		if p.k == 1 {
			break
		}
	}
	return plans
}

// tiePlanOf converts a matching into its complementary-minor plan; ok is
// false when two positions share a column (a structurally zero step).
func tiePlanOf(n int, pos []matchPos) (p tiePlan, ok bool) {
	var rowUsed, colUsed [4]bool
	for _, q := range pos {
		if colUsed[q.c] {
			return tiePlan{}, false
		}
		rowUsed[q.r], colUsed[q.c] = true, true
	}
	// The unit-pattern matrix: matched rows are their unit rows, the
	// minor's rows map in order onto the minor's columns. It is a
	// permutation matrix whose determinant is det(work)/det(minor).
	unit := make([][]int64, n)
	for r := range unit {
		unit[r] = make([]int64, n)
	}
	for _, q := range pos {
		unit[q.r][q.c] = 1
	}
	var cols []int
	for c := 0; c < n; c++ {
		if !colUsed[c] {
			cols = append(cols, c)
		}
	}
	for r := 0; r < n; r++ {
		if rowUsed[r] {
			continue
		}
		unit[r][cols[p.k]] = 1
		p.rows[p.k] = uint8(r)
		if c := cols[p.k]; c != n-1 {
			p.cols[p.k] = uint8(c)
		}
		p.k++
	}
	p.sign = int8(detSignN(unit))
	return p, true
}

// SoSOrient2Tie returns the SoS sign of a 3×3 orientation matrix (last
// column all ones) whose exact determinant is zero — the caller has
// certified the tie, so the determinant is not re-evaluated. ids are the
// rows' distinct global vertex ids and replace the origin row (-1 for
// none). It never allocates.
func SoSOrient2Tie(m *[3][3]int64, ids *[3]int, replace int) int {
	s, _ := sosTie2(m, ids, replace)
	return s
}

// SoSOrient2TiePlans is SoSOrient2Tie reporting the number of plans
// walked, for the predicate microbenchmark.
func SoSOrient2TiePlans(m *[3][3]int64, ids *[3]int, replace int) (sign, plans int) {
	return sosTie2(m, ids, replace)
}

func sosTie2(m *[3][3]int64, ids *[3]int, replace int) (int, int) {
	plans := tie2[replace+1][order3(ids)]
	for i := range plans {
		p := &plans[i]
		if p.k == 1 {
			return int(p.sign), i + 1
		}
		if s := sign64(m[p.rows[0]][p.cols[0]] - m[p.rows[1]][p.cols[0]]); s != 0 {
			return int(p.sign) * s, i + 1
		}
	}
	return 0, len(plans) // unreachable for distinct ids
}

// SoSOrient3Tie is SoSOrient2Tie for a 4×4 orientation matrix.
func SoSOrient3Tie(m *[4][4]int64, ids *[4]int, replace int) int {
	s, _ := sosTie3(m, ids, replace)
	return s
}

// SoSOrient3TiePlans is SoSOrient3Tie reporting the number of plans
// walked, for the predicate microbenchmark.
func SoSOrient3TiePlans(m *[4][4]int64, ids *[4]int, replace int) (sign, plans int) {
	return sosTie3(m, ids, replace)
}

func sosTie3(m *[4][4]int64, ids *[4]int, replace int) (int, int) {
	plans := tie3[replace+1][order4(ids)]
	for i := range plans {
		p := &plans[i]
		var s int
		switch p.k {
		case 1:
			return int(p.sign), i + 1
		case 2:
			s = sign64(m[p.rows[0]][p.cols[0]] - m[p.rows[1]][p.cols[0]])
		default:
			r0, r1, r2 := &m[p.rows[0]], &m[p.rows[1]], &m[p.rows[2]]
			c0, c1 := p.cols[0], p.cols[1]
			minor := [3][3]int64{{r0[c0], r0[c1], 1}, {r1[c0], r1[c1], 1}, {r2[c0], r2[c1], 1}}
			s = sign64(Det3H(&minor))
		}
		if s != 0 {
			return int(p.sign) * s, i + 1
		}
	}
	return 0, len(plans) // unreachable for distinct ids
}

func sign64(x int64) int {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	}
	return 0
}

// SoSOrientSign returns the SoS-resolved sign of an n×n orientation
// matrix (n = 3 or 4, last column all ones) without a certified sign in
// hand: the exact determinant's sign, or on a tie the tie path.
func SoSOrientSign(m [][]int64, ids []int, replace int) int {
	if s := detSignN(m); s != 0 {
		return s
	}
	if len(m) == 3 {
		var a [3][3]int64
		for r := range a {
			copy(a[r][:], m[r])
		}
		return SoSOrient2Tie(&a, (*[3]int)(ids), replace)
	}
	var a [4][4]int64
	for r := range a {
		copy(a[r][:], m[r])
	}
	return SoSOrient3Tie(&a, (*[4]int)(ids), replace)
}

// DetN returns the exact determinant of an n×n int64 matrix, n <= 4,
// using 128-bit accumulation (entries must obey the fixed-point magnitude
// contract).
func DetN(m [][]int64) Int128 { return detN(m) }

// detSignN returns the exact sign of the determinant of an n×n int64
// matrix, n <= 4, using 128-bit accumulation.
func detSignN(m [][]int64) int {
	return detN(m).Sign()
}

// detN dispatches the generic [][]int64 surface onto the fixed-size
// cofactor evaluators. The copies into value arrays keep the whole
// evaluation allocation-free — the previous variable-size recursion
// through freshly built minors dominated the compressor's allocation
// profile on degenerate data, where every exact-zero determinant walks
// the SoS minor ladder.
func detN(m [][]int64) Int128 {
	switch len(m) {
	case 1:
		return Int128FromInt64(m[0][0])
	case 2:
		return Mul64(m[0][0], m[1][1]).Sub(Mul64(m[0][1], m[1][0]))
	case 3:
		var a [3][3]int64
		for r := range a {
			copy(a[r][:], m[r])
		}
		return Det3(&a)
	default:
		var a [4][4]int64
		for r := range a {
			copy(a[r][:], m[r])
		}
		return Det4(&a)
	}
}
