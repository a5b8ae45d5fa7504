package cp

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/exact/filter"
	"repro/internal/field"
)

// randFixed2D builds a Detector2D over random fixed-point values in
// [-bound, bound], with a rectangular all-zero region when zr is set —
// the masked-land shape the degenerate-cell convention exists for.
func randFixed2D(rng *rand.Rand, nx, ny int, bound int64, zr bool) *Detector2D {
	u := make([]int64, nx*ny)
	v := make([]int64, nx*ny)
	for i := range u {
		u[i] = rng.Int63n(2*bound+1) - bound
		v[i] = rng.Int63n(2*bound+1) - bound
	}
	if zr {
		for j := ny / 4; j < ny/2; j++ {
			for i := nx / 4; i < nx/2; i++ {
				u[j*nx+i], v[j*nx+i] = 0, 0
			}
		}
	}
	return &Detector2D{Mesh: field.Mesh2D{NX: nx, NY: ny}, U: u, V: v}
}

func randFixed3D(rng *rand.Rand, nx, ny, nz int, bound int64, zr bool) *Detector3D {
	n := nx * ny * nz
	u := make([]int64, n)
	v := make([]int64, n)
	w := make([]int64, n)
	for i := range u {
		u[i] = rng.Int63n(2*bound+1) - bound
		v[i] = rng.Int63n(2*bound+1) - bound
		w[i] = rng.Int63n(2*bound+1) - bound
	}
	if zr {
		for k := 0; k < nz/2; k++ {
			for j := 0; j < ny/2; j++ {
				for i := 0; i < nx/2; i++ {
					vi := (k*ny+j)*nx + i
					u[vi], v[vi], w[vi] = 0, 0, 0
				}
			}
		}
	}
	return &Detector3D{Mesh: field.Mesh3D{NX: nx, NY: ny, NZ: nz}, U: u, V: v, W: w}
}

// cellContains2D runs the per-cell predicate the compression kernel
// calls, ContainsVertices, on triangle c, counting into a throwaway Local.
func cellContains2D(d *Detector2D, c int) bool {
	vs := d.Mesh.CellVertices(c)
	var loc filter.Local
	return d.ContainsVertices(&vs, &loc)
}

func cellContains3D(d *Detector3D, c int) bool {
	vs := d.Mesh.CellVertices(c)
	var loc filter.Local
	return d.ContainsVertices(&vs, &loc)
}

// containsAll2D runs the cache-blocked row sweep, ContainsRows, over
// every cell row.
func containsAll2D(d *Detector2D, mask, out []bool) {
	var loc filter.Local
	d.ContainsRows(mask, out, 0, d.CellRows(), &loc)
}

func containsAll3D(d *Detector3D, mask, out []bool) {
	var loc filter.Local
	d.ContainsRows(mask, out, 0, d.CellRows(), &loc)
}

// TestContainsBatch2DMatchesCellContains pins the cache-blocked row
// sweep (ContainsRows over all rows) cell-for-cell equal to the
// per-cell predicate (ContainsVertices), with and without masks, across
// magnitudes (tiny ranges force degenerate/SoS paths).
func TestContainsBatch2DMatchesCellContains(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial, bound := range []int64{1 << 20, 1 << 8, 3, 1} {
		d := randFixed2D(rng, 17, 13, bound, trial%2 == 0)
		nc := d.Mesh.NumCells()
		out := make([]bool, nc)
		containsAll2D(d, nil, out)
		for c := 0; c < nc; c++ {
			if got, want := out[c], cellContains2D(d, c); got != want {
				t.Fatalf("bound=%d: batch[%d] = %v, per-cell = %v", bound, c, got, want)
			}
		}
		// Masked: untouched cells keep their sentinel value.
		mask := make([]bool, nc)
		got := make([]bool, nc)
		for c := range mask {
			mask[c] = rng.Intn(2) == 0
			got[c] = true
		}
		containsAll2D(d, mask, got)
		for c := 0; c < nc; c++ {
			if !mask[c] {
				if !got[c] {
					t.Fatalf("bound=%d: masked-out cell %d was written", bound, c)
				}
				continue
			}
			if want := cellContains2D(d, c); got[c] != want {
				t.Fatalf("bound=%d: masked batch[%d] = %v, want %v", bound, c, got[c], want)
			}
		}
	}
}

func TestContainsBatch3DMatchesCellContains(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	for trial, bound := range []int64{1 << 20, 1 << 6, 2, 1} {
		d := randFixed3D(rng, 7, 6, 5, bound, trial%2 == 1)
		nc := d.Mesh.NumCells()
		out := make([]bool, nc)
		containsAll3D(d, nil, out)
		for c := 0; c < nc; c++ {
			if got, want := out[c], cellContains3D(d, c); got != want {
				t.Fatalf("bound=%d: batch[%d] = %v, per-cell = %v", bound, c, got, want)
			}
		}
		mask := make([]bool, nc)
		got := make([]bool, nc)
		for c := range mask {
			mask[c] = rng.Intn(3) != 0
		}
		containsAll3D(d, mask, got)
		for c := 0; c < nc; c++ {
			want := mask[c] && cellContains3D(d, c)
			if got[c] != want {
				t.Fatalf("bound=%d: masked batch[%d] = %v, want %v", bound, c, got[c], want)
			}
		}
	}
}

// TestDetectCells2DMatchesBruteForce compares the (possibly parallel)
// stripe sweep against a serial per-cell scan, on a grid large enough
// to cross the parallel threshold.
func TestDetectCells2DMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	d := randFixed2D(rng, 160, 120, 1<<16, true)
	var want []int
	for c := 0; c < d.Mesh.NumCells(); c++ {
		if cellContains2D(d, c) {
			want = append(want, c)
		}
	}
	got := d.DetectCells()
	if len(got) != len(want) {
		t.Fatalf("DetectCells found %d cells, brute force %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("cell list diverges at %d: %d != %d", i, got[i], want[i])
		}
	}
}

func TestDetectCells3DMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	d := randFixed3D(rng, 24, 20, 16, 1<<14, true)
	var want []int
	for c := 0; c < d.Mesh.NumCells(); c++ {
		if cellContains3D(d, c) {
			want = append(want, c)
		}
	}
	got := d.DetectCells()
	if len(got) != len(want) {
		t.Fatalf("DetectCells found %d cells, brute force %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("cell list diverges at %d: %d != %d", i, got[i], want[i])
		}
	}
}

// TestCellContainsLocalTieNoAlloc pins the detectors' per-cell predicate
// (the vertex-id form the compression kernel calls) allocation-free on cells whose orientations tie: the tie path runs on
// the stack, like the filtered path.
func TestCellContainsLocalTieNoAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	// Cell 0 of each detector gets two equal corner vectors, so its
	// full-simplex orientation is an exact tie.
	d2 := randFixed2D(rng, 5, 5, 1<<20, false)
	vs2 := d2.Mesh.CellVertices(0)
	d2.U[vs2[0]], d2.V[vs2[0]] = 7, 9
	d2.U[vs2[1]], d2.V[vs2[1]] = 7, 9
	d2.U[vs2[2]], d2.V[vs2[2]] = -5, -3 // mixed signs: not decided by the sign prefilter
	var loc filter.Local
	if a := testing.AllocsPerRun(100, func() { d2.ContainsVertices(&vs2, &loc) }); a != 0 {
		t.Errorf("Detector2D.ContainsVertices on a tie cell: %v allocs/op", a)
	}
	d3 := randFixed3D(rng, 4, 4, 4, 1<<20, false)
	vs3 := d3.Mesh.CellVertices(0)
	for _, vi := range vs3[1:3] {
		d3.U[vi], d3.V[vi], d3.W[vi] = 7, 9, 11
	}
	d3.U[vs3[0]], d3.V[vs3[0]], d3.W[vs3[0]] = -1, -2, -3
	if a := testing.AllocsPerRun(100, func() { d3.ContainsVertices(&vs3, &loc) }); a != 0 {
		t.Errorf("Detector3D.ContainsVertices on a tie cell: %v allocs/op", a)
	}
	loc.Flush()
}

// tieHeavyDetector3D builds a field whose values take only three levels,
// with an all-zero block: most cells tie and resolve through SoS, like a
// decoded, coarsely quantized field with a no-slip wall.
func tieHeavyDetector3D(rng *rand.Rand, n int) *Detector3D {
	d := randFixed3D(rng, n, n, n, 1, true)
	for i := range d.U {
		d.U[i] *= 1 << 19
		d.V[i] *= 1 << 19
		d.W[i] *= 1 << 19
	}
	return d
}

// TestDetectCellsConcurrentTies runs DetectCells from four goroutines at
// once over tie-heavy 2D and 3D fields (each sweep itself fanned over the
// worker pool) and requires every result to equal a serial run — the
// tie path shares only the read-only plan table. Run under -race by
// `make race`.
func TestDetectCellsConcurrentTies(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	d2 := randFixed2D(rng, 96, 96, 1, true)
	d3 := tieHeavyDetector3D(rng, 20)
	want2, want3 := d2.DetectCells(), d3.DetectCells()
	if len(want2) == 0 || len(want3) == 0 {
		t.Fatalf("tie-heavy fields detected %d/%d cells; want some", len(want2), len(want3))
	}
	var wg sync.WaitGroup
	got2 := make([][]int, 4)
	got3 := make([][]int, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got2[g] = d2.DetectCells()
			got3[g] = d3.DetectCells()
		}(g)
	}
	wg.Wait()
	for g := 0; g < 4; g++ {
		if !reflect.DeepEqual(got2[g], want2) {
			t.Errorf("goroutine %d: 2D cells differ from the serial run", g)
		}
		if !reflect.DeepEqual(got3[g], want3) {
			t.Errorf("goroutine %d: 3D cells differ from the serial run", g)
		}
	}
}
