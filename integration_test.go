package repro

import (
	"fmt"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/cp"
	"repro/internal/datagen"
	"repro/internal/field"
	"repro/internal/fixed"
	"repro/internal/mpi"
	"repro/internal/parallel"
)

// TestEndToEnd2D sweeps every dataset × speculation target and asserts
// the full guarantee chain: error bound semantics, exact critical point
// preservation, and decompression determinism.
func TestEndToEnd2D(t *testing.T) {
	datasets := map[string]*field.Field2D{
		"ocean": datagen.Ocean(96, 72),
	}
	for name, f := range datasets {
		tr, err := fixed.Fit(f.U, f.V)
		if err != nil {
			t.Fatal(err)
		}
		tau := 0.01 * field.Range(f.U, f.V)
		orig := cp.DetectField2D(f, tr)
		for _, spec := range []core.Speculation{core.NoSpec, core.ST1, core.ST2, core.ST3, core.ST4} {
			t.Run(fmt.Sprintf("%s/%v", name, spec), func(t *testing.T) {
				blob, err := core.CompressField2D(f, tr, core.Options{Tau: tau, Spec: spec})
				if err != nil {
					t.Fatal(err)
				}
				dec, err := core.Decompress2D(blob)
				if err != nil {
					t.Fatal(err)
				}
				rep := cp.Compare(orig, cp.DetectField2D(dec, tr))
				if !rep.Preserved() {
					t.Fatalf("critical points broken: %v", rep)
				}
				dec2, err := core.Decompress2D(blob)
				if err != nil {
					t.Fatal(err)
				}
				for i := range dec.U {
					if dec.U[i] != dec2.U[i] || dec.V[i] != dec2.V[i] {
						t.Fatal("decompression not deterministic")
					}
				}
			})
		}
	}
}

// TestEndToEnd3D sweeps the 3D datasets at reduced scale.
func TestEndToEnd3D(t *testing.T) {
	datasets := map[string]*field.Field3D{
		"hurricane":  datagen.Hurricane(24, 24, 12),
		"nek5000":    datagen.Nek5000(20, 20, 20),
		"turbulence": datagen.Turbulence(20, 20, 20, 3),
	}
	for name, f := range datasets {
		tr, err := fixed.Fit(f.U, f.V, f.W)
		if err != nil {
			t.Fatal(err)
		}
		tau := 0.01 * field.Range(f.U, f.V, f.W)
		orig := cp.DetectField3D(f, tr)
		for _, spec := range []core.Speculation{core.NoSpec, core.ST2, core.ST4} {
			t.Run(fmt.Sprintf("%s/%v", name, spec), func(t *testing.T) {
				blob, err := core.CompressField3D(f, tr, core.Options{Tau: tau, Spec: spec})
				if err != nil {
					t.Fatal(err)
				}
				dec, err := core.Decompress3D(blob)
				if err != nil {
					t.Fatal(err)
				}
				rep := cp.Compare(orig, cp.DetectField3D(dec, tr))
				if !rep.Preserved() {
					t.Fatalf("critical points broken: %v", rep)
				}
				// Speculation deliberately trades PSNR for ratio
				// (Fig. 6: ST4 at τ=1% sits near 27 dB).
				floor := 30.0
				if spec == core.ST4 {
					floor = 20
				}
				if psnr := analysis.PSNR(f.Components(), dec.Components()); psnr < floor {
					t.Errorf("%v PSNR %v below floor %v at τ=1%% of range", spec, psnr, floor)
				}
			})
		}
	}
}

// TestEndToEndDistributed sweeps dataset × strategy × grid on the
// simulated machine.
func TestEndToEndDistributed(t *testing.T) {
	f := datagen.Turbulence(24, 24, 24, 5)
	tr, err := fixed.Fit(f.Components()...)
	if err != nil {
		t.Fatal(err)
	}
	tau := 0.01 * field.Range(f.U, f.V, f.W)
	orig := cp.DetectField3D(f, tr)
	if len(orig) == 0 {
		t.Fatal("test volume has no critical points")
	}
	for _, strat := range []parallel.Strategy{parallel.LosslessBorders, parallel.RatioOriented} {
		for _, p := range []int{2, 3} {
			t.Run(fmt.Sprintf("%v/p%d", strat, p), func(t *testing.T) {
				grid := []int{p, p, p}
				res, err := parallel.CompressDistributed(f.Dims(), f.Components(), grid, tr,
					core.Options{Tau: tau}, strat, mpi.Config{})
				if err != nil {
					t.Fatal(err)
				}
				dec, _, err := parallel.DecompressDistributed(res.Blobs, f.Dims(), grid, mpi.Config{})
				if err != nil {
					t.Fatal(err)
				}
				rep := cp.Compare(orig, cp.Detect(f.Dims(), dec, tr))
				if !rep.Preserved() {
					t.Fatalf("distributed run broke critical points: %v", rep)
				}
			})
		}
	}
}

// TestEndToEndAsymmetricGrids covers non-cubic decompositions and
// non-divisible dimensions.
func TestEndToEndAsymmetricGrids(t *testing.T) {
	f := datagen.Ocean(70, 54) // not divisible by 3
	tr, err := fixed.Fit(f.Components()...)
	if err != nil {
		t.Fatal(err)
	}
	orig := cp.DetectField2D(f, tr)
	for _, grid := range [][]int{{3, 1}, {1, 3}, {3, 2}} {
		t.Run(fmt.Sprintf("%dx%d", grid[0], grid[1]), func(t *testing.T) {
			res, err := parallel.CompressDistributed(f.Dims(), f.Components(), grid, tr,
				core.Options{Tau: 0.05, Spec: core.ST2}, parallel.RatioOriented, mpi.Config{})
			if err != nil {
				t.Fatal(err)
			}
			dec, _, err := parallel.DecompressDistributed(res.Blobs, f.Dims(), grid, mpi.Config{})
			if err != nil {
				t.Fatal(err)
			}
			rep := cp.Compare(orig, cp.Detect(f.Dims(), dec, tr))
			if !rep.Preserved() {
				t.Fatalf("asymmetric grid broke critical points: %v", rep)
			}
		})
	}
}
