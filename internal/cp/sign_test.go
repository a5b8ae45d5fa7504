package cp

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/exact/filter"
	"repro/internal/field"
)

// Differential tests of the sign prefilter: a cell on which some
// component is strictly sign-uniform is reported empty without building
// a matrix. The reference is the full point-in-simplex predicate with
// SoS (orient), called directly.

// fullContains is the containment outcome without the sign prefilter:
// the degenerate all-zero convention, then Algorithm 1 with SoS.
func fullContains(d *Detector, c int) bool {
	vs := field.SimplexVertices(d.Dims, c)
	zero := true
	for _, z := range d.Comps {
		for _, vi := range vs {
			zero = zero && z[vi] == 0
		}
	}
	var loc filter.Local
	return !zero && d.orient(&vs, &loc)
}

// hasZeroSideComponent reports whether some component is zero on at
// least one vertex and of one strict sign on all the others: the shape
// the prefilter must not exclude, since the SoS perturbation of the zero
// entry can put the origin inside the hull.
func hasZeroSideComponent(comps [][]int64, vs []int) bool {
	for _, z := range comps {
		zeros, pos, neg := 0, 0, 0
		for _, vi := range vs {
			switch {
			case z[vi] == 0:
				zeros++
			case z[vi] > 0:
				pos++
			default:
				neg++
			}
		}
		if zeros > 0 && (pos == 0) != (neg == 0) {
			return true
		}
	}
	return false
}

// permutedIDs returns a GlobalID map scrambling the SoS vertex order, so
// ties resolve differently from the local index order.
func permutedIDs(rng *rand.Rand, n int) func(int) int {
	perm := rng.Perm(n)
	return func(v int) int { return perm[v] }
}

func TestSignPrefilter2DMatchesFullPredicate(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	decided, zeroSideHits := 0, 0
	for trial, bound := range []int64{1 << 20, 1 << 6, 3, 2, 1, 1} {
		d := randFixed2D(rng, 19, 15, bound, trial%2 == 0)
		if trial >= 3 {
			d.GlobalID = permutedIDs(rng, len(d.Comps[0]))
		}
		nc := numCells(d)
		var want []int
		batch := make([]bool, nc)
		containsAll(d, nil, batch)
		for c := 0; c < nc; c++ {
			full := fullContains(d, c)
			vs := field.SimplexVertices(d.Dims, c)
			if d.SignDecided(c) {
				decided++
				if full {
					t.Fatalf("bound=%d cell %d: sign-decided but the full predicate finds a critical point", bound, c)
				}
			} else if full && hasZeroSideComponent(d.Comps, vs[:]) {
				zeroSideHits++
			}
			if got := cellContains(d, c); got != full {
				t.Fatalf("bound=%d cell %d: ContainsVertices = %v, full predicate %v", bound, c, got, full)
			}
			if batch[c] != full {
				t.Fatalf("bound=%d cell %d: ContainsRows = %v, full predicate %v", bound, c, batch[c], full)
			}
			if full {
				want = append(want, c)
			}
		}
		if got := d.DetectCells(); !reflect.DeepEqual(got, want) {
			t.Fatalf("bound=%d: DetectCells = %v, full predicate %v", bound, got, want)
		}
	}
	if decided == 0 {
		t.Fatal("no cell was sign-decided; the test exercises nothing")
	}
	if zeroSideHits == 0 {
		t.Fatal("no critical point found in a cell with a zero-entry one-sided component; the zero case is untested")
	}
}

func TestSignPrefilter3DMatchesFullPredicate(t *testing.T) {
	rng := rand.New(rand.NewSource(142))
	decided, zeroSideHits := 0, 0
	for trial, bound := range []int64{1 << 20, 1 << 6, 2, 1, 1} {
		d := randFixed3D(rng, 8, 7, 6, bound, trial%2 == 1)
		if trial >= 2 {
			d.GlobalID = permutedIDs(rng, len(d.Comps[0]))
		}
		nc := numCells(d)
		var want []int
		batch := make([]bool, nc)
		containsAll(d, nil, batch)
		for c := 0; c < nc; c++ {
			full := fullContains(d, c)
			vs := field.SimplexVertices(d.Dims, c)
			if d.SignDecided(c) {
				decided++
				if full {
					t.Fatalf("bound=%d cell %d: sign-decided but the full predicate finds a critical point", bound, c)
				}
			} else if full && hasZeroSideComponent(d.Comps, vs[:]) {
				zeroSideHits++
			}
			if got := cellContains(d, c); got != full {
				t.Fatalf("bound=%d cell %d: ContainsVertices = %v, full predicate %v", bound, c, got, full)
			}
			if batch[c] != full {
				t.Fatalf("bound=%d cell %d: ContainsRows = %v, full predicate %v", bound, c, batch[c], full)
			}
			if full {
				want = append(want, c)
			}
		}
		if got := d.DetectCells(); !reflect.DeepEqual(got, want) {
			t.Fatalf("bound=%d: DetectCells = %v, full predicate %v", bound, got, want)
		}
	}
	if decided == 0 {
		t.Fatal("no cell was sign-decided; the test exercises nothing")
	}
	if zeroSideHits == 0 {
		t.Fatal("no critical point found in a cell with a zero-entry one-sided component; the zero case is untested")
	}
}

// TestSignPrefilterForcedTies builds cells whose every predicate ties
// (collinear or coplanar vectors on one side of the origin) and checks
// the prefilter agrees with the SoS-resolved full predicate on each.
func TestSignPrefilterForcedTies(t *testing.T) {
	// 2D: three vectors on the ray (k, 2k), k = 1..3 — the full-simplex
	// orientation is exactly zero, so the outcome rests on SoS.
	u2, v2 := make([]int64, 4), make([]int64, 4)
	d2 := &Detector{Dims: []int{2, 2}, Comps: [][]int64{u2, v2}}
	for i, k := range []int64{1, 2, 3, 2} {
		u2[i], v2[i] = k, 2*k
	}
	for c := 0; c < numCells(d2); c++ {
		if !d2.SignDecided(c) {
			t.Fatalf("2D tie cell %d: positive ray not sign-decided", c)
		}
		if fullContains(d2, c) {
			t.Fatalf("2D tie cell %d: SoS puts the origin inside a one-sided ray", c)
		}
	}
	// Negating one vertex puts the origin on the segment: not decided,
	// and the outcome must match the full predicate under every SoS order.
	u2[3], v2[3] = -2, -4
	rng := rand.New(rand.NewSource(143))
	for trial := 0; trial < 24; trial++ {
		d2.GlobalID = permutedIDs(rng, 4)
		for c := 0; c < numCells(d2); c++ {
			if got, want := cellContains(d2, c), fullContains(d2, c); got != want {
				t.Fatalf("2D mixed tie cell %d: ContainsVertices = %v, full %v", c, got, want)
			}
		}
	}
	// 3D: every vector lies in the plane w = 0 and has u > 0, so the
	// full-simplex determinant vanishes on every tetrahedron.
	u3, v3, w3 := make([]int64, 8), make([]int64, 8), make([]int64, 8)
	d3 := &Detector{Dims: []int{2, 2, 2}, Comps: [][]int64{u3, v3, w3}}
	for i := range u3 {
		u3[i], v3[i], w3[i] = int64(1+i%3), int64(i%2), 0
	}
	for trial := 0; trial < 24; trial++ {
		d3.GlobalID = permutedIDs(rng, 8)
		for c := 0; c < numCells(d3); c++ {
			if !d3.SignDecided(c) {
				t.Fatalf("3D tie cell %d: positive-u cell not sign-decided", c)
			}
			if fullContains(d3, c) {
				t.Fatalf("3D tie cell %d: SoS puts the origin inside a positive-u hull", c)
			}
		}
	}
}
