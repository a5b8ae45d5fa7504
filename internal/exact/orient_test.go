package exact

import (
	"math/rand"
	"reflect"
	"testing"
)

// orientMatrix builds the n×n orientation matrix of data rows (last
// column ones) with row replace set to the origin, plus the SoSSign
// perturbation indices of its vertex ids.
func orientMatrix(data [][]int64, ids []int, replace int) ([][]int64, [][]int) {
	n := len(data)
	m := make([][]int64, n)
	for r := range m {
		m[r] = make([]int64, n)
		m[r][n-1] = 1
		if r != replace {
			copy(m[r], data[r])
		}
	}
	return m, orientPert(n, replace, ids)
}

// tieSign runs the fixed-size tie entry point on a [][]int64 matrix.
func tieSign(m [][]int64, ids []int, replace int) int {
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

// tieShapes generate n data rows of n-1 components each in the shapes
// that make exact ties common on real data.
var tieShapes = map[string]func(rng *rand.Rand, n int) [][]int64{
	// Small entries: generic degeneracies of every kind.
	"small": func(rng *rand.Rand, n int) [][]int64 {
		return randData(rng, n, func() int64 { return rng.Int63n(5) - 2 })
	},
	// Zero vectors next to full-magnitude ones: the land-mask / no-slip
	// wall shape.
	"zero-rows": func(rng *rand.Rand, n int) [][]int64 {
		d := randData(rng, n, func() int64 { return rng.Int63n(1<<21+1) - 1<<20 })
		for r := range d {
			if rng.Intn(2) == 0 {
				for c := range d[r] {
					d[r][c] = 0
				}
			}
		}
		return d
	},
	// Two vertices carrying the same vector: the quantized-field shape.
	"dup-rows": func(rng *rand.Rand, n int) [][]int64 {
		d := randData(rng, n, func() int64 { return rng.Int63n(1<<21+1) - 1<<20 })
		a, b := rng.Intn(n), rng.Intn(n-1)
		if b >= a {
			b++
		}
		copy(d[b], d[a])
		return d
	},
	// Entries at the fixed-point magnitude bound.
	"extremes": func(rng *rand.Rand, n int) [][]int64 {
		return randData(rng, n, func() int64 { return []int64{-1 << 20, 0, 1 << 20}[rng.Intn(3)] })
	},
}

func randData(rng *rand.Rand, n int, entry func() int64) [][]int64 {
	d := make([][]int64, n)
	for r := range d {
		d[r] = make([]int64, n-1)
		for c := range d[r] {
			d[r][c] = entry()
		}
	}
	return d
}

// TestSoSOrientSignMatchesGeneric cross-validates the orientation SoS
// against the generic SoSSign: SoSOrientSign on every input, and the
// tie entry points on every exact tie, for n = 3 and 4, every replace
// value and every tie shape. The rank-pattern plan table must never
// change a decision.
func TestSoSOrientSignMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	for name, shape := range tieShapes {
		for n := 3; n <= 4; n++ {
			for replace := -1; replace < n; replace++ {
				ties := 0
				for trial := 0; trial < 400; trial++ {
					ids := rng.Perm(1000)[:n]
					m, pert := orientMatrix(shape(rng, n), ids, replace)
					want := SoSSign(m, pert)
					if want == 0 {
						t.Fatalf("%s: SoSSign left a tie unresolved (m=%v ids=%v replace=%d)", name, m, ids, replace)
					}
					if got := SoSOrientSign(m, ids, replace); got != want {
						t.Fatalf("%s: SoSOrientSign %d, SoSSign %d (m=%v ids=%v replace=%d)",
							name, got, want, m, ids, replace)
					}
					if detSignN(m) != 0 {
						continue
					}
					ties++
					if got := tieSign(m, ids, replace); got != want {
						t.Fatalf("%s: tie path %d, SoSSign %d (m=%v ids=%v replace=%d)",
							name, got, want, m, ids, replace)
					}
				}
				if ties < 20 {
					t.Errorf("%s n=%d replace=%d: only %d ties exercised", name, n, replace, ties)
				}
			}
		}
	}
}

// TestTiePlanTable rebuilds every (n, replace, rank pattern) entry of the
// init-time plan table from perturbationSubsets and checks it: the
// ε-ordered matchings minus those with a repeated column, ending at the
// first full transversal, each stored as its complementary minor with
// the sign of the unit-pattern matrix. It also checks the two facts the
// pruning rests on, on random matrices: a repeated-column matching has a
// zero work determinant, and det(work) = sign·det(minor) for every plan.
func TestTiePlanTable(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	for n := 3; n <= 4; n++ {
		for _, rank := range permutations(n) {
			for replace := -1; replace < n; replace++ {
				var got []tiePlan
				if n == 3 {
					got = tie2[replace+1][order3((*[3]int)(rank))]
				} else {
					got = tie3[replace+1][order4((*[4]int)(rank))]
				}
				var want []tiePlan
				for _, s := range perturbationSubsets(orientPert(n, replace, rank)) {
					m := randMat(rng, n, 1<<20)
					work := workMatrix(m, s.positions)
					p, distinct := wantPlan(n, s.positions)
					if !distinct {
						if detSignN(work) != 0 {
							t.Fatalf("repeated-column matching %v has a nonzero work determinant", s.positions)
						}
						continue
					}
					if got, want := detN(work), minorDet(m, p); got != want {
						t.Fatalf("matching %v: det(work) = %v, sign·det(minor) = %v", s.positions, got, want)
					}
					want = append(want, p)
					if p.k == 1 {
						break
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d replace=%d rank=%v:\n table %+v\n want  %+v", n, replace, rank, got, want)
				}
				if last := want[len(want)-1]; last.k != 1 {
					t.Fatalf("n=%d replace=%d rank=%v: no full transversal ends the list", n, replace, rank)
				}
			}
		}
	}
}

// wantPlan is the test's own derivation of a matching's plan.
func wantPlan(n int, pos []matchPos) (tiePlan, bool) {
	var p tiePlan
	unit := make([][]int64, n)
	for r := range unit {
		unit[r] = make([]int64, n)
	}
	matchedRow := map[int]bool{}
	matchedCol := map[int]bool{}
	for _, q := range pos {
		if matchedCol[q.c] {
			return p, false
		}
		matchedRow[q.r], matchedCol[q.c] = true, true
		unit[q.r][q.c] = 1
	}
	var rows, cols []int
	for r := 0; r < n; r++ {
		if !matchedRow[r] {
			rows = append(rows, r)
		}
		if !matchedCol[r] {
			cols = append(cols, r)
		}
	}
	p.k = uint8(len(rows))
	for i, r := range rows {
		unit[r][cols[i]] = 1
		p.rows[i] = uint8(r)
	}
	for i, c := range cols[:len(cols)-1] {
		p.cols[i] = uint8(c)
	}
	p.sign = int8(detSignN(unit))
	return p, true
}

// workMatrix is SoSSign's work matrix for a matching: matched rows
// become their unit rows.
func workMatrix(m [][]int64, pos []matchPos) [][]int64 {
	n := len(m)
	w := make([][]int64, n)
	for r := range w {
		w[r] = append([]int64(nil), m[r]...)
	}
	for _, q := range pos {
		for c := 0; c < n; c++ {
			w[q.r][c] = 0
		}
		w[q.r][q.c] = 1
	}
	return w
}

// minorDet evaluates sign·det(minor) of plan p on m (the minor's last
// column is m's last column), through the generic detN.
func minorDet(m [][]int64, p tiePlan) Int128 {
	n := len(m)
	k := int(p.k)
	minor := make([][]int64, k)
	for i := range minor {
		r := int(p.rows[i])
		minor[i] = make([]int64, k)
		for j := 0; j < k-1; j++ {
			minor[i][j] = m[r][p.cols[j]]
		}
		minor[i][k-1] = m[r][n-1]
	}
	d := detN(minor)
	if p.sign < 0 {
		d = d.Neg()
	}
	return d
}

// TestSoSOrientSignSharedCellConsistency rebuilds the detection-consistency
// argument at the predicate level: evaluating the same degenerate simplex
// with rows in a different order (and the matching ids) must flip the sign
// with the permutation parity, exactly as a real determinant would.
func TestSoSOrientSignSharedCellConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 2000; trial++ {
		ids := rng.Perm(100)[:3]
		m := make([][]int64, 3)
		for r := range m {
			m[r] = []int64{rng.Int63n(3) - 1, rng.Int63n(3) - 1, 1}
		}
		s := SoSOrientSign(m, ids, -1)
		// Swap rows 0 and 1.
		m2 := [][]int64{m[1], m[0], m[2]}
		ids2 := []int{ids[1], ids[0], ids[2]}
		s2 := SoSOrientSign(m2, ids2, -1)
		if s2 != -s {
			t.Fatalf("row swap did not flip sign: %d then %d (m=%v ids=%v)", s, s2, m, ids)
		}
	}
}

// TestSoSTieNoAlloc pins the tie entry points allocation-free: they run
// on every certified-zero predicate of a detection sweep.
func TestSoSTieNoAlloc(t *testing.T) {
	m2 := [3][3]int64{{0, 0, 1}, {0, 0, 1}, {5, 7, 1}}
	ids2 := [3]int{9, 4, 6}
	m3 := [4][4]int64{{0, 0, 0, 1}, {3, 3, 3, 1}, {3, 3, 3, 1}, {1, 2, 3, 1}}
	ids3 := [4]int{8, 2, 5, 7}
	for replace := -1; replace < 4; replace++ {
		if replace < 3 {
			if a := testing.AllocsPerRun(100, func() { _ = SoSOrient2Tie(&m2, &ids2, replace) }); a != 0 {
				t.Errorf("SoSOrient2Tie replace=%d: %v allocs/op", replace, a)
			}
		}
		if a := testing.AllocsPerRun(100, func() { _ = SoSOrient3Tie(&m3, &ids3, replace) }); a != 0 {
			t.Errorf("SoSOrient3Tie replace=%d: %v allocs/op", replace, a)
		}
	}
}

func BenchmarkSoSOrientSignDegenerate(b *testing.B) {
	m := [][]int64{{1, 2, 1}, {2, 4, 1}, {3, 6, 1}}
	ids := []int{5, 17, 23}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = SoSOrientSign(m, ids, -1)
	}
}

func BenchmarkSoSOrient3Tie(b *testing.B) {
	m := [4][4]int64{{0, 0, 0, 1}, {3, 3, 3, 1}, {3, 3, 3, 1}, {1, 2, 3, 1}}
	ids := [4]int{8, 2, 5, 7}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = SoSOrient3Tie(&m, &ids, -1)
	}
}
