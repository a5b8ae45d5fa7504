package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cp"
	"repro/internal/exact/filter"
	"repro/internal/field"
	"repro/internal/fixed"
)

// Equivalence tests of the vertex-stencil sweep against the mesh
// functions it replaces: the star table, the prepare() maps, and the
// sign plane.

// refSigns recomputes a sign plane from the components, one explicit
// comparison per bit.
func refSigns(comps [maxComps][]int64, nc int) []uint8 {
	out := make([]uint8, len(comps[0]))
	for v := range out {
		for c := 0; c < nc; c++ {
			if comps[c][v] > 0 {
				out[v] |= 1 << (2 * c)
			}
			if comps[c][v] < 0 {
				out[v] |= 1 << (2*c + 1)
			}
		}
	}
	return out
}

// refVertexCells and refCellVertices are the mesh functions over the
// kernel's extended mesh; a triangle's fourth id repeats its first, as
// in a star entry.
func refVertexCells(k *kernel, v int) []int {
	if k.blk.ndim == 2 {
		return field.Mesh2D{NX: k.ext[0], NY: k.ext[1]}.VertexCells(v, nil)
	}
	return field.Mesh3D{NX: k.ext[0], NY: k.ext[1], NZ: k.ext[2]}.VertexCells(v, nil)
}

func refCellVertices(k *kernel, c int) [4]int {
	if k.blk.ndim == 2 {
		vs := field.Mesh2D{NX: k.ext[0], NY: k.ext[1]}.CellVertices(c)
		return [4]int{vs[0], vs[1], vs[2], vs[0]}
	}
	return field.Mesh3D{NX: k.ext[0], NY: k.ext[1], NZ: k.ext[2]}.CellVertices(c)
}

// checkStar compares star(v) with VertexCells plus CellVertices, in
// order, for every vertex of the extended mesh.
func checkStar(t *testing.T, name string, k *kernel) {
	t.Helper()
	interior := 0
	var cells [maxStar]int
	var verts [maxStar][4]int
	for v := range k.comps[0] {
		n := k.mesh.star(v, &cells, &verts)
		want := refVertexCells(k, v)
		if n != len(want) {
			t.Fatalf("%s: vertex %d: star has %d cells, VertexCells %d", name, v, n, len(want))
		}
		if n == maxStar || (k.blk.ndim == 2 && n == field.MaxVertexCells2D) {
			interior++
		}
		for s, c := range want {
			if cells[s] != c {
				t.Fatalf("%s: vertex %d: star cell %d = %d, VertexCells %d", name, v, s, cells[s], c)
			}
			if got, vs := verts[s], refCellVertices(k, c); got != vs {
				t.Fatalf("%s: vertex %d cell %d: star vertices %v, CellVertices %v", name, v, c, got, vs)
			}
		}
	}
	if k.ext[0] > 2 && k.ext[1] > 2 && (k.blk.ndim == 2 || k.ext[2] > 2) && interior == 0 {
		t.Fatalf("%s: no interior vertex reached the stencil table", name)
	}
}

// blockKind selects the strategy of a test block.
type blockKind int

const (
	plainBlock blockKind = iota
	borderBlock
	twoPhaseBlock
	temporalBlock
)

func (b blockKind) String() string {
	return [...]string{"plain", "border", "two-phase", "temporal"}[b]
}

// stencilKernel builds a kernel over a small random field of values in
// [-3, 3] (exact zeros, ties and critical points are all common). Border
// and two-phase blocks get neighbors on the sides in nb; two-phase ghost
// planes are filled with random values in the same range.
func stencilKernel(t *testing.T, rng *rand.Rand, ndim, nx, ny, nz int, kind blockKind, nb []int, opts Options) *kernel {
	t.Helper()
	if ndim == 2 {
		nz = 1
	}
	n := nx * ny * nz
	blk := blockSpec{blockShape: blockShape{ndim: ndim, nc: ndim, nx: nx, ny: ny, nz: nz}, opts: opts}
	blk.transform.Scale, blk.transform.Shift = 1<<10, 10
	rnd := func() []float32 {
		z := make([]float32, n)
		for i := range z {
			z[i] = float32(rng.Intn(13)-6) / 2
		}
		return z
	}
	for c := 0; c < ndim; c++ {
		blk.comps[c] = rnd()
		if kind == temporalBlock {
			blk.prev[c] = rnd()
		}
	}
	for _, side := range nb {
		blk.neighbor[side] = true
	}
	blk.losslessBord = kind == borderBlock
	blk.twoPhase = kind == twoPhaseBlock
	if blk.twoPhase {
		blk.gnx, blk.gny, blk.gnz = nx+2, ny+2, nz
		blk.gx0, blk.gy0 = 1, 1
		if ndim == 3 {
			blk.gnz, blk.gz0 = nz+2, 1
		}
	}
	k, err := newKernel(blk)
	if err != nil {
		t.Fatal(err)
	}
	for _, side := range nb {
		if blk.twoPhase {
			setRandomGhost(t, rng, k, side)
		}
	}
	return k
}

func setRandomGhost(t *testing.T, rng *rand.Rand, k *kernel, side int) {
	t.Helper()
	d0, d1 := k.faceDims(side)
	vals := make([][]int64, k.blk.nc)
	for c := range vals {
		vals[c] = make([]int64, d0*d1)
		for i := range vals[c] {
			vals[c][i] = int64(rng.Intn(13)-6) << 9
		}
	}
	if err := k.setGhostPlane(side, vals); err != nil {
		t.Fatal(err)
	}
}

// TestStarMatchesMesh: for every vertex of small extended meshes
// (degenerate 2-wide axes included) and of two-phase blocks with ghost
// offsets, star(v) is VertexCells plus CellVertices in the same order.
func TestStarMatchesMesh(t *testing.T) {
	for _, ext := range [][3]int{{2, 2, 1}, {2, 7, 1}, {7, 2, 1}, {3, 3, 1}, {3, 3, 2}, {5, 4, 3}, {6, 5, 4}, {3, 2, 5}} {
		ndim := 3
		if ext[2] == 1 {
			ndim = 2
		}
		var comps [maxComps][]int64
		for c := 0; c < ndim; c++ {
			comps[c] = make([]int64, ext[0]*ext[1]*ext[2])
		}
		k := &kernel{blk: blockShape{ndim: ndim}, ext: ext, comps: comps,
			mesh: newCellMesh(ndim, ext, comps, nil)}
		checkStar(t, fmt.Sprintf("%dD %v", ndim, ext), k)
	}
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct {
		ndim       int
		nx, ny, nz int
		nb         []int
	}{
		{2, 5, 4, 1, []int{SideMinX}},
		{2, 4, 6, 1, []int{SideMinX, SideMaxX, SideMinY, SideMaxY}},
		{2, 6, 3, 1, []int{SideMaxY}},
		{3, 4, 3, 3, []int{SideMinX, SideMaxZ}},
		{3, 3, 4, 4, []int{SideMinY, SideMaxY, SideMinZ}},
		{3, 4, 4, 3, []int{SideMinX, SideMaxX, SideMinY, SideMaxY, SideMinZ, SideMaxZ}},
	} {
		k := stencilKernel(t, rng, tc.ndim, tc.nx, tc.ny, tc.nz, twoPhaseBlock, tc.nb, Options{Tau: 0.1})
		checkStar(t, fmt.Sprintf("two-phase %dD %dx%dx%d %v (ext %v)", tc.ndim, tc.nx, tc.ny, tc.nz, tc.nb, k.ext), k)
		k.close()
	}
}

// TestPrepareMatchesCellScan: on plain, lossless-border and two-phase
// blocks, prepare's cellValid, cpCell and cpAdj equal a reference scan
// over every cell (valid iff all vertices valid; critical iff valid and
// the per-cell predicate holds) and over every own vertex's incident
// cells.
func TestPrepareMatchesCellScan(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	type shape struct {
		ndim       int
		nx, ny, nz int
		nb         []int
	}
	shapes := []shape{
		{2, 9, 7, 1, []int{SideMinX, SideMaxY}},
		{2, 2, 6, 1, []int{SideMaxX}},
		{2, 6, 5, 1, []int{SideMinX, SideMaxX, SideMinY, SideMaxY}},
		{3, 5, 4, 3, []int{SideMinX, SideMaxZ}},
		{3, 4, 4, 4, []int{SideMinX, SideMaxX, SideMinY, SideMaxY, SideMinZ, SideMaxZ}},
		{3, 2, 3, 2, []int{SideMaxY}},
	}
	cpCells := 0
	for _, sh := range shapes {
		for _, kind := range []blockKind{plainBlock, borderBlock, twoPhaseBlock} {
			for trial := 0; trial < 3; trial++ {
				nb := sh.nb
				if kind == plainBlock {
					nb = nil
				}
				k := stencilKernel(t, rng, sh.ndim, sh.nx, sh.ny, sh.nz, kind, nb, Options{Tau: 0.1, Spec: ST4})
				k.prepare()
				name := fmt.Sprintf("%v %dD %dx%dx%d %v trial %d", kind, sh.ndim, sh.nx, sh.ny, sh.nz, nb, trial)
				refValid := make([]bool, k.mesh.numCells())
				refCP := make([]bool, len(refValid))
				var pred filter.Local
				for c := range refValid {
					vs := refCellVertices(k, c)
					refValid[c] = k.valid[vs[0]] && k.valid[vs[1]] && k.valid[vs[2]] && k.valid[vs[3]]
					refCP[c] = refValid[c] && k.det.ContainsVertices(&vs, &pred)
					if k.cellValid[c] != refValid[c] || k.cpCell[c] != refCP[c] {
						t.Fatalf("%s: cell %d: valid %v cp %v, reference valid %v cp %v",
							name, c, k.cellValid[c], k.cpCell[c], refValid[c], refCP[c])
					}
					if refCP[c] {
						cpCells++
						if _, ok := k.origType[c]; !ok {
							t.Fatalf("%s: critical cell %d has no original type", name, c)
						}
					}
				}
				if len(k.origType) != countTrue(refCP) {
					t.Fatalf("%s: %d original types for %d critical cells", name, len(k.origType), countTrue(refCP))
				}
				for ok := 0; ok < k.blk.nz; ok++ {
					for oj := 0; oj < k.blk.ny; oj++ {
						for oi := 0; oi < k.blk.nx; oi++ {
							want := false
							for _, c := range refVertexCells(k, k.extIdx(oi, oj, ok)) {
								want = want || refCP[c]
							}
							if got := k.cpAdj[k.ownIdx(oi, oj, ok)]; got != want {
								t.Fatalf("%s: own vertex (%d,%d,%d): cpAdj %v, reference %v", name, oi, oj, ok, got, want)
							}
						}
					}
				}
				k.close()
			}
		}
	}
	if cpCells == 0 {
		t.Fatal("no critical cell in any block: the reference scan compared nothing")
	}
}

func countTrue(b []bool) int {
	n := 0
	for _, x := range b {
		if x {
			n++
		}
	}
	return n
}

// checkSigns compares every sign-plane byte with the one recomputed
// from k.comps.
func checkSigns(t *testing.T, name string, k *kernel) {
	t.Helper()
	want := refSigns(k.comps, k.blk.nc)
	for v, s := range k.signs {
		if s != want[v] {
			t.Fatalf("%s: sign byte of vertex %d = %02b, components give %02b", name, v, s, want[v])
		}
	}
}

// TestSignPlaneTracksComponents: after the fixed-point fill and the
// ghost planes, after each vertex's speculation trial loop (whose every
// trial is rolled back), after every vertex of a compress and at its
// end, the
// sign plane equals the bytes recomputed from k.comps — at every
// speculation level, on plain, temporal, lossless-border and two-phase
// blocks (whose max ghost planes are refreshed between the phases).
func TestSignPlaneTracksComponents(t *testing.T) {
	for _, x := range []int64{0, 1, -1, 2, -2, fixed.MaxMagnitude, -fixed.MaxMagnitude, math.MaxInt64, math.MinInt64} {
		for c := 0; c < maxComps; c++ {
			comps := [maxComps][]int64{{0}, {0}, {0}}
			comps[c][0] = x
			if got, want := cp.SignBits(x, c), refSigns(comps, c+1)[0]; got != want {
				t.Fatalf("SignBits(%d, %d) = %06b, want %06b", x, c, got, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(37))
	for _, ndim := range []int{2, 3} {
		nx, ny, nz := 9, 7, 1
		nb := []int{SideMinX, SideMaxX, SideMaxY}
		if ndim == 3 {
			nx, ny, nz = 5, 4, 4
			nb = []int{SideMinY, SideMaxX, SideMaxZ}
		}
		for _, spec := range []Speculation{NoSpec, ST1, ST2, ST3, ST4} {
			rollbacks := 0
			for _, kind := range []blockKind{plainBlock, temporalBlock, borderBlock, twoPhaseBlock} {
				name := fmt.Sprintf("%dD %v %v", ndim, spec, kind)
				blockNb := nb
				if kind == plainBlock || kind == temporalBlock {
					blockNb = nil
				}
				k := stencilKernel(t, rng, ndim, nx, ny, nz, kind, blockNb, Options{Tau: 0.1, Spec: spec})
				checkSigns(t, name+" after fill", k)
				k.prepare()
				sw := k.sweepers(phaseAll)[0]
				next := 0 // the stream position of the next vertex
				step := func(phase2 bool) {
					for ok := 0; ok < k.blk.nz; ok++ {
						for oj := 0; oj < k.blk.ny; oj++ {
							for oi := 0; oi < k.blk.nx; oi++ {
								if k.blk.twoPhase && k.order.phase2(oi, oj, ok) != phase2 {
									continue
								}
								if spec >= ST2 && !k.forcedLossless(oi, oj, ok) {
									// The trial loop alone: every trial's write is
									// rolled back before it returns.
									sw.speculateVerify(oi, oj, ok, k.extIdx(oi, oj, ok), spec == ST4)
									checkSigns(t, fmt.Sprintf("%s after the trials of (%d,%d,%d)", name, oi, oj, ok), k)
								}
								fails := sw.stats.SpecFails
								sw.processVertex(oi, oj, ok, next)
								next++
								what := "commit"
								if sw.stats.SpecFails > fails {
									what = "rollback"
								}
								checkSigns(t, fmt.Sprintf("%s after the %s of (%d,%d,%d)", name, what, oi, oj, ok), k)
							}
						}
					}
				}
				step(false)
				if k.blk.twoPhase {
					for _, side := range []int{SideMaxX, SideMaxY, SideMaxZ} {
						if k.blk.neighbor[side] {
							setRandomGhost(t, rng, k, side)
						}
					}
					checkSigns(t, name+" after the phase-2 ghosts", k)
					step(true)
				}
				sw.flush()
				rollbacks += k.stats.SpecFails
				if _, err := k.finish(); err != nil {
					t.Fatal(err)
				}
				k.close()
			}
			if spec >= ST2 && rollbacks == 0 {
				t.Fatalf("%dD %v: no speculation rollback; the restore path went unchecked", ndim, spec)
			}
		}
	}
}
