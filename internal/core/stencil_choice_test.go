package core

import (
	"testing"

	"repro/internal/field"
	"repro/internal/fixed"
	"repro/internal/predictor"
)

// TestSliceResidualMatchesLorenzo: the selector's residuals are
// predictor.Lorenzo's on the block's own values — the reduced stencil's
// with lo at the vertex's slow-axis slice, the full one's with lo 0 —
// at every own vertex, on a plain block and on a ghost-layered one.
func TestSliceResidualMatchesLorenzo(t *testing.T) {
	f2, f3 := smooth2D(95, 9, 7), smooth3D(96, 6, 5, 4)
	for _, b := range []Block{
		block2D(f2, fitOf(t, f2.Components()...), Options{Tau: 0.05}),
		block3D(f3, fitOf(t, f3.Components()...), Options{Tau: 0.05}),
	} {
		for _, placed := range []bool{false, true} {
			if placed {
				b = placedBlock(b, true)
			}
			enc, err := NewEncoder(b)
			if err != nil {
				t.Fatal(err)
			}
			k := enc.k
			nx, ny, nz := k.blk.nx, k.blk.ny, k.blk.nz
			for c := 0; c < k.blk.nc; c++ {
				own := make([]int64, nx*ny*nz)
				b.Transform.ToFixed(b.Comps[c], own)
				cur, low := make([]int64, nx), make([]int64, nx)
				for ok := 0; ok < nz; ok++ {
					for oj := 0; oj < ny; oj++ {
						slice, lower := ok*nx*ny, ok > 0
						lj, lk := oj, ok-1
						if k.blk.ndim == 2 {
							slice, lower, lj, lk = oj*nx, oj > 0, oj-1, 0
						}
						k.sliceResiduals(cur, c, oj, ok)
						if lower {
							k.sliceResiduals(low, c, lj, lk)
						} else {
							clear(low)
						}
						for oi := 0; oi < nx; oi++ {
							x := own[(ok*ny+oj)*nx+oi]
							rr, rf := cur[oi], cur[oi]-low[oi]
							if want := x - predictor.Lorenzo(own, nx, ny, oi, oj, ok, slice); rr != want {
								t.Fatalf("%v placed=%v (%d,%d,%d): reduced residual %d, want %d", b.Dims, placed, oi, oj, ok, rr, want)
							}
							if want := x - predictor.Lorenzo(own, nx, ny, oi, oj, ok, 0); rf != want {
								t.Fatalf("%v placed=%v (%d,%d,%d): full residual %d, want %d", b.Dims, placed, oi, oj, ok, rf, want)
							}
						}
					}
				}
			}
			enc.Close()
		}
	}
}

// TestReducedOrderRaisesLo: under the reduced stencil every run's lo is
// the larger of the order's own lo and the start of the run's slow-axis
// slice, in the raster, two-phase and pieced orders alike.
func TestReducedOrderRaisesLo(t *testing.T) {
	for _, o := range []vertexOrder{
		{nx: 5, ny: 4, nz: 1},
		{nx: 5, ny: 4, nz: 3},
		{nx: 5, ny: 4, nz: 3, twoPhase: true, maxPlane: [3]bool{true, false, true}},
		{nx: 5, ny: 9, nz: 1, pieces: 3},
		{nx: 3, ny: 4, nz: 8, pieces: 4},
	} {
		var full []orderRun
		_ = o.allRuns(func(r orderRun) error { full = append(full, r); return nil })
		o.reduced = true
		i := 0
		_ = o.allRuns(func(r orderRun) error {
			slice := r.ok * o.nx * o.ny
			if o.nz == 1 {
				slice = r.oj * o.nx
			}
			want := full[i]
			want.lo = max(want.lo, slice)
			if r != want {
				t.Fatalf("%+v: run %d is %+v, want %+v", o, i, r, want)
			}
			i++
			return nil
		})
		if i != len(full) {
			t.Fatalf("%+v: %d runs reduced, %d full", o, i, len(full))
		}
	}
}

// TestStencilChoice: a smooth field chooses the reduced stencil where the
// bound is large against its variation and the full one where it is
// small; a temporal block keeps the full stencil; the choice is in the
// header.
func TestStencilChoice(t *testing.T) {
	f2, f3 := smooth2D(97, 40, 32), smooth3D(98, 24, 24, 24)
	for _, tc := range []struct {
		blk     Block
		tauRel  float64
		reduced bool
	}{
		{block2D(f2, fitOf(t, f2.Components()...), Options{}), 0.1, true},
		{block2D(f2, fitOf(t, f2.Components()...), Options{}), 0.0005, false},
		{block3D(f3, fitOf(t, f3.Components()...), Options{}), 0.1, true},
		{block3D(f3, fitOf(t, f3.Components()...), Options{}), 0.0005, false},
	} {
		for _, temporal := range []bool{false, true} {
			b := tc.blk
			b.Opts.Tau = tc.tauRel * field.Range(b.Comps...)
			if temporal {
				b.Prev = b.Comps
			}
			blob, _, err := CompressBlock(b)
			if err != nil {
				t.Fatal(err)
			}
			h, err := PeekBlock(blob)
			if err != nil {
				t.Fatal(err)
			}
			if want := tc.reduced && !temporal; h.Reduced != want || h.Version != FormatVersion {
				t.Errorf("%v τ %g·range temporal=%v: reduced %v (version %d), want %v", b.Dims, tc.tauRel, temporal, h.Reduced, h.Version, want)
			}
		}
	}
}

func TestIlog2(t *testing.T) {
	for _, tc := range []struct{ x, want int64 }{
		{0, 0}, {1, 0}, {2, 256}, {3, 256 + 128}, {4, 512}, {6, 512 + 128}, {1 << 40, 40 << 8}, {1<<41 - 1, 40<<8 | 255},
	} {
		if got := ilog2(tc.x); got != tc.want {
			t.Errorf("ilog2(%d) = %d, want %d", tc.x, got, tc.want)
		}
	}
	prev := int64(0)
	for x := int64(1); x < 1<<12; x++ {
		got := ilog2(x)
		if got < prev {
			t.Fatalf("ilog2 falls at %d: %d < %d", x, got, prev)
		}
		prev = got
	}
}

func fitOf(t *testing.T, comps ...[]float32) fixed.Transform {
	t.Helper()
	tr, err := fixed.Fit(comps...)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}
