package core

import (
	"math/rand"
	"testing"

	"repro/internal/derive"
	"repro/internal/exact/filter"
)

// Differential tests of the relaxation-first cellBound against the
// Ψ-first order of the cpSZ reference (derive_cp_abs_eb_sos_online):
// min(Ψ, τ′) first, then the sign-uniformity relaxation raising it.

// refCellBound is the Ψ-first reference for one cell, built on the
// Int128 reference derivations so it shares no code with cellBound.
func refCellBound(ndim int, comps [maxComps][]int64, vs []int, vid int, tau int64, orientOnly, relax bool) (cb int64, relaxed bool) {
	var o []int
	for _, v := range vs {
		if v != vid {
			o = append(o, v)
		}
	}
	u, v, w := comps[0], comps[1], comps[2]
	switch {
	case ndim == 2 && orientOnly:
		cb = derive.Psi2DOrientationOnly(u, v, o[0], o[1], vid)
	case ndim == 2:
		cb = derive.Psi2DReference(u, v, o[0], o[1], vid)
	case orientOnly:
		cb = derive.Psi3DOrientationOnly(u, v, w, o[0], o[1], o[2], vid)
	default:
		cb = derive.Psi3DReference(u, v, w, o[0], o[1], o[2], vid)
	}
	if cb > tau {
		cb = tau
	}
	if !relax {
		return cb, false
	}
	if r := refRelaxation(ndim, comps, vs, vid); r > cb {
		return r, true
	}
	return cb, false
}

// refRelaxation is the cell's relaxation bound: the largest
// SignPreservingBound at vid over the components with one strict sign
// on every vertex of the cell, 0 when there is none.
func refRelaxation(ndim int, comps [maxComps][]int64, vs []int, vid int) int64 {
	r := int64(0)
	for _, z := range comps[:ndim] {
		s := sgn(z[vs[0]])
		uniform := s != 0
		for _, vi := range vs[1:] {
			uniform = uniform && sgn(z[vi]) == s
		}
		if uniform {
			r = max(r, derive.SignPreservingBound(z[vid]))
		}
	}
	return r
}

func sgn(v int64) int {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	default:
		return 0
	}
}

// adversarialValue draws a fixed-point value biased toward the cases the
// skip rule branches on: zeros, ±1 (relaxation bound 0), ±(τ′+1)
// (relaxation bound exactly τ′), and small magnitudes that make cells
// sign-uniform and determinants tie.
func adversarialValue(rng *rand.Rand, tau int64) int64 {
	var m int64
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		m = 1
	case 2:
		m = tau + 1
	case 3:
		m = tau + rng.Int63n(3) - 1
	case 4:
		m = 1 + rng.Int63n(8)
	default:
		m = 1 + rng.Int63n(4*tau+1)
	}
	if m <= 0 {
		m = 1
	}
	if rng.Intn(4) == 0 {
		return -m
	}
	return m
}

// fillComps fills every component. Adversarial fills give each
// component a dominant sign, so sign-uniform cells are common; the
// others are uniform draws over ±2^17.
func fillComps(rng *rand.Rand, comps [maxComps][]int64, nc int, tau int64, adversarial bool) {
	for c := 0; c < nc; c++ {
		flip := int64(1)
		if rng.Intn(2) == 0 {
			flip = -1
		}
		for i := range comps[c] {
			if adversarial {
				comps[c][i] = flip * adversarialValue(rng, tau)
			} else {
				comps[c][i] = rng.Int63n(1<<18) - 1<<17
			}
		}
	}
}

// xiProbes lists running-minimum values around the branch points of the
// skip rule for a cell with relaxation bound r.
func xiProbes(rng *rand.Rand, r, tau int64) []int64 {
	out := []int64{0, 1, tau, rng.Int63n(tau + 1)}
	for _, x := range []int64{r - 1, r, r + 1} {
		if x >= 0 && x <= tau {
			out = append(out, x)
		}
	}
	return out
}

func TestCellBoundMatchesPsiFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	checked, skipped := 0, 0
	for _, ndim := range []int{2, 3} {
		ext := [3]int{5, 4, 1}
		if ndim == 3 {
			ext = [3]int{4, 3, 3}
		}
		n := ext[0] * ext[1] * ext[2]
		for trial := 0; trial < 60; trial++ {
			var comps [maxComps][]int64
			for c := 0; c < ndim; c++ {
				comps[c] = make([]int64, n)
			}
			tau := 1 + rng.Int63n(64)
			if trial%5 == 0 {
				tau = 1 + rng.Int63n(1<<12)
			}
			fillComps(rng, comps, ndim, tau, trial%4 != 3)
			var pred filter.Local
			d := newDimOps(ndim, ext, comps, refSigns(comps, ndim))
			var vbuf [4]int
			for c := 0; c < d.numCells(); c++ {
				d.cellVertices(c, &vbuf)
				vs := vbuf[:ndim+1]
				for _, vid := range vs {
					for _, oo := range []bool{false, true} {
						for _, relax := range []bool{false, true} {
							wantCB, wantRlx := refCellBound(ndim, comps, vs, vid, tau, oo, relax)
							r := int64(0)
							if relax {
								r = refRelaxation(ndim, comps, vs, vid)
							}
							for _, xi := range xiProbes(rng, r, tau) {
								for _, open := range []bool{false, true} {
									cb, rlx := d.cellBound(vid, &vbuf, xi, tau, oo, relax, open, &pred)
									if got, want := min(cb, xi), min(wantCB, xi); got != want {
										t.Fatalf("%dD cell %d vid %d tau %d xi %d oo=%v relax=%v open=%v: min(cb, xi) = %d, Ψ-first %d",
											ndim, c, vid, tau, xi, oo, relax, open, got, want)
									}
									if open && rlx != wantRlx {
										t.Fatalf("%dD cell %d vid %d tau %d xi %d oo=%v relax=%v: relaxed = %v, Ψ-first %v",
											ndim, c, vid, tau, xi, oo, relax, rlx, wantRlx)
									}
									if rlx && !wantRlx {
										t.Fatalf("%dD cell %d vid %d: relaxed reported on a closed flag the reference denies", ndim, c, vid)
									}
									if r >= xi {
										skipped++
									}
									checked++
								}
							}
						}
					}
				}
			}
		}
	}
	// The adversarial draws must actually reach the skip branch.
	if skipped == 0 || skipped == checked {
		t.Fatalf("probe mix degenerate: %d of %d checks in the skip branch", skipped, checked)
	}
}

// refDeriveBound is deriveBound in the Ψ-first order: every valid cell
// contributes min(Ψ, τ′) raised by its relaxation, with no running
// minimum passed in.
func refDeriveBound(k *kernel, vid int) (xi int64, relaxed bool) {
	xi = k.tau
	var vbuf [4]int
	nd := k.blk.ndim
	for _, c := range refVertexCells(k, vid) {
		if !k.cellValid[c] {
			continue
		}
		if k.cpCell[c] {
			return 0, false
		}
		k.dim.cellVertices(c, &vbuf)
		cb, rlx := refCellBound(nd, k.comps, vbuf[:nd+1], vid, k.tau, k.blk.opts.OrientationOnly, !k.blk.opts.DisableRelaxation)
		relaxed = relaxed || rlx
		xi = min(xi, cb)
	}
	return xi, relaxed
}

// TestDeriveBoundMatchesPsiFirst compares the kernel's per-vertex bound
// and relaxed flag with the Ψ-first reference over whole blocks, with
// the working arrays overwritten by adversarial fixed-point values
// (critical-point cells included, which force ξ = 0).
func TestDeriveBoundMatchesPsiFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	for _, ndim := range []int{2, 3} {
		for _, opts := range []Options{
			{Tau: 0.1},
			{Tau: 0.1, DisableRelaxation: true},
			{Tau: 0.1, OrientationOnly: true},
			{Tau: 0.1, OrientationOnly: true, DisableRelaxation: true},
		} {
			for trial := 0; trial < 6; trial++ {
				k := newTestKernel(t, ndim, 7, 6, 4, opts)
				k.tau = 1 + rng.Int63n(48)
				fillComps(rng, k.comps, k.blk.nc, k.tau, trial%3 != 2)
				copy(k.signs, refSigns(k.comps, k.blk.nc))
				k.prepare()
				s := k.sweepers(1)[0]
				relaxedCells := 0
				for vid := range k.comps[0] {
					gotXi, gotRlx := s.deriveBound(vid)
					wantXi, wantRlx := refDeriveBound(k, vid)
					if gotXi != wantXi || gotRlx != wantRlx {
						t.Fatalf("%dD %+v trial %d vid %d: deriveBound = (%d, %v), Ψ-first (%d, %v)",
							ndim, opts, trial, vid, gotXi, gotRlx, wantXi, wantRlx)
					}
					if gotRlx {
						relaxedCells++
					}
				}
				if !opts.DisableRelaxation && trial%3 != 2 && relaxedCells == 0 {
					t.Fatalf("%dD trial %d: no relaxed vertex; the adversarial mix lost its sign-uniform cells", ndim, trial)
				}
				k.close()
			}
		}
	}
}

// newTestKernel builds a single-block kernel over a zero field of the
// given shape (nz ignored in 2D); callers overwrite k.comps.
func newTestKernel(t *testing.T, ndim, nx, ny, nz int, opts Options) *kernel {
	t.Helper()
	nc := ndim
	if ndim == 2 {
		nz = 1
	}
	blk := blockSpec{ndim: ndim, nc: nc, nx: nx, ny: ny, nz: nz, opts: opts}
	blk.transform.Scale = 1 << 10
	blk.transform.Shift = 10
	for c := 0; c < nc; c++ {
		blk.comps[c] = make([]float32, nx*ny*nz)
	}
	k, err := newKernel(blk)
	if err != nil {
		t.Fatal(err)
	}
	return k
}
