package cp

import (
	"math/rand"
	"reflect"
	"testing"
)

// Differential tests of the sign prefilter: a cell on which some
// component is strictly sign-uniform is reported empty without building
// a matrix. The reference is the full point-in-simplex predicate with
// SoS (triContains/tetContains), called directly.

// fullContains2D is the containment outcome without the sign prefilter:
// the degenerate all-zero convention, then Algorithm 1 with SoS.
func fullContains2D(d *Detector2D, c int) bool {
	vs := d.Mesh.CellVertices(c)
	var m [3][3]int64
	zero := true
	for r, vi := range vs {
		m[r] = [3]int64{d.U[vi], d.V[vi], 1}
		zero = zero && d.U[vi] == 0 && d.V[vi] == 0
	}
	return !zero && d.triContains(&m, &vs, nil)
}

func fullContains3D(d *Detector3D, c int) bool {
	vs := d.Mesh.CellVertices(c)
	var m [4][4]int64
	zero := true
	for r, vi := range vs {
		m[r] = [4]int64{d.U[vi], d.V[vi], d.W[vi], 1}
		zero = zero && d.U[vi] == 0 && d.V[vi] == 0 && d.W[vi] == 0
	}
	return !zero && d.tetContains(&m, &vs, nil)
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
			d.GlobalID = permutedIDs(rng, len(d.U))
		}
		nc := d.Mesh.NumCells()
		var want []int
		batch := make([]bool, nc)
		d.ContainsBatch(nil, batch)
		for c := 0; c < nc; c++ {
			full := fullContains2D(d, c)
			vs := d.Mesh.CellVertices(c)
			if d.SignDecided(c) {
				decided++
				if full {
					t.Fatalf("bound=%d cell %d: sign-decided but the full predicate finds a critical point", bound, c)
				}
			} else if full && hasZeroSideComponent([][]int64{d.U, d.V}, vs[:]) {
				zeroSideHits++
			}
			if got := d.CellContains(c); got != full {
				t.Fatalf("bound=%d cell %d: CellContains = %v, full predicate %v", bound, c, got, full)
			}
			if batch[c] != full {
				t.Fatalf("bound=%d cell %d: ContainsBatch = %v, full predicate %v", bound, c, batch[c], full)
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
			d.GlobalID = permutedIDs(rng, len(d.U))
		}
		nc := d.Mesh.NumCells()
		var want []int
		batch := make([]bool, nc)
		d.ContainsBatch(nil, batch)
		for c := 0; c < nc; c++ {
			full := fullContains3D(d, c)
			vs := d.Mesh.CellVertices(c)
			if d.SignDecided(c) {
				decided++
				if full {
					t.Fatalf("bound=%d cell %d: sign-decided but the full predicate finds a critical point", bound, c)
				}
			} else if full && hasZeroSideComponent([][]int64{d.U, d.V, d.W}, vs[:]) {
				zeroSideHits++
			}
			if got := d.CellContains(c); got != full {
				t.Fatalf("bound=%d cell %d: CellContains = %v, full predicate %v", bound, c, got, full)
			}
			if batch[c] != full {
				t.Fatalf("bound=%d cell %d: ContainsBatch = %v, full predicate %v", bound, c, batch[c], full)
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
	d2 := &Detector2D{U: make([]int64, 4), V: make([]int64, 4)}
	d2.Mesh.NX, d2.Mesh.NY = 2, 2
	for i, k := range []int64{1, 2, 3, 2} {
		d2.U[i], d2.V[i] = k, 2*k
	}
	for c := 0; c < d2.Mesh.NumCells(); c++ {
		if !d2.SignDecided(c) {
			t.Fatalf("2D tie cell %d: positive ray not sign-decided", c)
		}
		if fullContains2D(d2, c) {
			t.Fatalf("2D tie cell %d: SoS puts the origin inside a one-sided ray", c)
		}
	}
	// Negating one vertex puts the origin on the segment: not decided,
	// and the outcome must match the full predicate under every SoS order.
	d2.U[3], d2.V[3] = -2, -4
	rng := rand.New(rand.NewSource(143))
	for trial := 0; trial < 24; trial++ {
		d2.GlobalID = permutedIDs(rng, 4)
		for c := 0; c < d2.Mesh.NumCells(); c++ {
			if got, want := d2.CellContains(c), fullContains2D(d2, c); got != want {
				t.Fatalf("2D mixed tie cell %d: CellContains = %v, full %v", c, got, want)
			}
		}
	}
	// 3D: every vector lies in the plane w = 0 and has u > 0, so the
	// full-simplex determinant vanishes on every tetrahedron.
	d3 := &Detector3D{U: make([]int64, 8), V: make([]int64, 8), W: make([]int64, 8)}
	d3.Mesh.NX, d3.Mesh.NY, d3.Mesh.NZ = 2, 2, 2
	for i := range d3.U {
		d3.U[i], d3.V[i], d3.W[i] = int64(1+i%3), int64(i%2), 0
	}
	for trial := 0; trial < 24; trial++ {
		d3.GlobalID = permutedIDs(rng, 8)
		for c := 0; c < d3.Mesh.NumCells(); c++ {
			if !d3.SignDecided(c) {
				t.Fatalf("3D tie cell %d: positive-u cell not sign-decided", c)
			}
			if fullContains3D(d3, c) {
				t.Fatalf("3D tie cell %d: SoS puts the origin inside a positive-u hull", c)
			}
		}
	}
}
