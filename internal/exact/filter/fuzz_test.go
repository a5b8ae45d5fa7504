package filter

import (
	"encoding/binary"
	"math"
	"math/big"
	"testing"
)

// fuzzVals is the number of int64 values one fuzz input decodes into:
// a 4×4 matrix in row-major order (its last column is the homogeneous
// one, so rows that are not all ones are reachable), the orientation
// denominator, the three drop denominators and the cap. Short inputs
// are zero-padded.
const fuzzVals = 16 + 1 + 3 + 1

// fuzzInput encodes a matrix and the trailing parameters as a fuzz
// input.
func fuzzInput(m [4][4]int64, params ...int64) []byte {
	b := make([]byte, 0, 8*fuzzVals)
	for r := range m {
		for c := range m[r] {
			b = binary.LittleEndian.AppendUint64(b, uint64(m[r][c]))
		}
	}
	for _, p := range params {
		b = binary.LittleEndian.AppendUint64(b, uint64(p))
	}
	return b
}

// homRows builds a homogeneous 4×4 (last column ones) from data rows.
func homRows(rows ...[3]int64) [4][4]int64 {
	var m [4][4]int64
	for r := range m {
		if r < len(rows) {
			copy(m[r][:3], rows[r][:])
		}
		m[r][3] = 1
	}
	return m
}

// FuzzFilterPredicates holds the kept predicate forms to their oracles:
// Local.Orient2Sign (over the first three rows, columns 0, 1 and 3) and
// Local.Orient3Sign must equal the big.Int determinant sign, and a
// certification of Psi3.OrientAtLeast or of a Psi3.DropsAtLeast bit
// must imply floor((|det|−1)/denom) >= cap exactly. Every call books
// its outcome: one orient2 and one orient3 stage, four Ψ outcomes per
// cap.
func FuzzFilterPredicates(f *testing.F) {
	const a22, a30 = 1 << 22, 1 << 30
	generic := homRows([3]int64{5, -7, 11}, [3]int64{-13, 2, 9}, [3]int64{4, 8, -6}, [3]int64{1, 1, 1})
	f.Add(fuzzInput(generic, 1, 1, 1, 1, 0))
	f.Add(fuzzInput(generic, 3, 5, 7, 2, 1<<40))
	f.Add(fuzzInput([4][4]int64{}, 1, 1, 1, 1, 0)) // zero rows, no ones column
	f.Add(fuzzInput(homRows(), 0, 0, 0, 0, 0))     // every data row zero
	f.Add(fuzzInput(homRows([3]int64{0, 0, 0}, [3]int64{3, -4, 5}, [3]int64{-6, 2, 7}, [3]int64{8, 1, -9}), 2, 2, 2, 2, 0))
	// The 3D admission edges: last admitted values, then the first
	// rejected one.
	f.Add(fuzzInput(homRows([3]int64{a22 - 1, -a22, a22 - 1}, [3]int64{-a22, a22 - 1, -a22}, [3]int64{a22 - 1, a22 - 1, -a22}, [3]int64{-a22, -a22, a22 - 1}), 1, 1, 1, 1, 1))
	f.Add(fuzzInput(homRows([3]int64{a22, 0, 0}, [3]int64{0, a22, 0}, [3]int64{0, 0, a22}, [3]int64{-a22, -a22, -a22}), 1, 1, 1, 1, 1))
	f.Add(fuzzInput(homRows([3]int64{-a22 - 1, 1, 2}, [3]int64{3, 4, 5}, [3]int64{6, 7, 9}, [3]int64{1, 0, 0}), 1, 1, 1, 1, 0))
	// The 2D admission edges.
	f.Add(fuzzInput(homRows([3]int64{a30 - 1, -a30, 0}, [3]int64{-a30, a30 - 1, 0}, [3]int64{a30 - 1, a30 - 1, 0}), 1, 1, 1, 1, 0))
	f.Add(fuzzInput(homRows([3]int64{a30, -a30, 0}, [3]int64{-a30 - 1, a30, 0}, [3]int64{a30, a30, 0}), 1, 1, 1, 1, 0))
	// int64 extremes, in the data and in the parameters.
	f.Add(fuzzInput(homRows([3]int64{math.MinInt64, math.MaxInt64, 0}, [3]int64{math.MaxInt64, math.MinInt64, 1}, [3]int64{-1, 1, math.MinInt64}, [3]int64{0, 0, math.MaxInt64}), math.MaxInt64, 1, math.MinInt64, 1, math.MaxInt64))
	f.Add(fuzzInput(generic, math.MinInt64, -1, 0, 1<<52, -1))
	f.Add(fuzzInput(generic, 1<<52-1, 1<<51, 1, 1, 1<<52-1))
	// Rows that are not all ones.
	notOnes := generic
	notOnes[1][3], notOnes[3][3] = 2, 0
	f.Add(fuzzInput(notOnes, 1, 1, 1, 1, 0))
	// Duplicate points: an exactly zero orientation determinant.
	dup := homRows([3]int64{a22 - 1, -a22, 12345}, [3]int64{a22 - 1, -a22, 12345}, [3]int64{-a22, a22 - 1, 3}, [3]int64{-5, 7, -a22})
	f.Add(fuzzInput(dup, 1, 1, 1, 1, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		var v [fuzzVals]int64
		for i := 0; i < fuzzVals && 8*i+8 <= len(data); i++ {
			v[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
		}
		var m [4][4]int64
		for r := range m {
			copy(m[r][:], v[4*r:4*r+4])
		}
		ds := [3]int64{v[17], v[18], v[19]}
		checkPredicates(t, &m, v[16], &ds, []int64{v[20]})

		// Raw int64s are rarely admitted, so the same input also runs
		// folded into the 3D admission range with a ones column and
		// denominators below 2^40, at caps on the boundary of the exact
		// quotients (δ ∈ [-1, 2] from the cap): the certified stages, not
		// only the declines, meet the oracle at the margin.
		var in [4][4]int64
		for r := range in {
			for c := 0; c < 3; c++ {
				in[r][c] = m[r][c]&(1<<23-1) - 1<<22
			}
			in[r][3] = 1
		}
		denom := v[16] & (1<<40 - 1)
		for k := range ds {
			ds[k] &= 1<<40 - 1
		}
		delta := v[20]&3 - 1
		var caps []int64
		if q, ok := quotInt64(big4(&in), denom); ok {
			caps = append(caps, q+delta)
		}
		for k := range ds {
			m3 := dropMatrix(&in, k)
			if q, ok := quotInt64(big3(&m3), ds[k]); ok {
				caps = append(caps, q+delta)
			}
		}
		checkPredicates(t, &in, denom, &ds, caps)
	})
}

// checkPredicates runs every kept predicate on m once — Orient2Sign over
// its first three rows, columns 0, 1 and 3 — and the two Ψ certificates
// once per cap, holding each to its oracle and the Local's counts to
// one outcome per call.
func checkPredicates(t *testing.T, m *[4][4]int64, denom int64, ds *[3]int64, caps []int64) {
	t.Helper()
	var loc Local
	m2 := [3][3]int64{
		{m[0][0], m[0][1], m[0][3]},
		{m[1][0], m[1][1], m[1][3]},
		{m[2][0], m[2][1], m[2][3]},
	}
	if got, want := loc.Orient2Sign(&m2), big3(&m2).Sign(); got != want {
		t.Fatalf("Orient2Sign(%v) = %d, oracle %d", m2, got, want)
	}
	if got, want := loc.Orient3Sign(m), big4(m).Sign(); got != want {
		t.Fatalf("Orient3Sign(%v) = %d, oracle %d", *m, got, want)
	}
	var p Psi3
	p.Load(m)
	for _, cap := range caps {
		if p.OrientAtLeast(&loc, denom, cap) {
			checkCert(t, "orientation", big4(m), denom, cap)
		}
		mask := p.DropsAtLeast(&loc, ds, cap)
		for k := range ds {
			if mask&(1<<k) != 0 {
				m3 := dropMatrix(m, k)
				checkCert(t, "drop", big3(&m3), ds[k], cap)
			}
		}
	}
	s := loc.Snapshot
	if s.Orient2Fast+s.Orient2Wide != 1 || s.Orient2Zero > s.Orient2Fast ||
		s.Orient3Calls() != 1 || s.PsiCert+s.PsiFallback != 4*uint64(len(caps)) {
		t.Fatalf("one call of each predicate, %d caps, booked %+v", len(caps), s)
	}
}

// quotInt64 returns floor((|det|−1)/denom) when det ≠ 0, denom > 0 and
// the quotient fits an int64.
func quotInt64(det *big.Int, denom int64) (int64, bool) {
	if det.Sign() == 0 || denom <= 0 {
		return 0, false
	}
	q := quotFloor(det, denom)
	return q.Int64(), q.IsInt64()
}

// checkCert fails unless a certified quotient bound holds exactly:
// det ≠ 0, cap and denom nonnegative, and |det| − 1 >= cap·denom, which
// is floor((|det|−1)/denom) >= cap for denom > 0.
func checkCert(t *testing.T, what string, det *big.Int, denom, cap int64) {
	t.Helper()
	if det.Sign() == 0 || cap < 0 || denom < 0 {
		t.Fatalf("%s certified cap=%d denom=%d with det %v", what, cap, denom, det)
	}
	lhs := new(big.Int).Abs(det)
	lhs.Sub(lhs, big.NewInt(1))
	rhs := new(big.Int).Mul(big.NewInt(cap), big.NewInt(denom))
	if lhs.Cmp(rhs) < 0 {
		t.Fatalf("%s certified cap=%d denom=%d but |det|-1 = %v < %v", what, cap, denom, lhs, rhs)
	}
}
