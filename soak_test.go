package repro

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/cp"
	"repro/internal/field"
	"repro/internal/fixed"
)

// Soak tests: broad randomized sweeps over seeds, bounds and targets.
// They take tens of seconds and are skipped with -short; the regular
// suite covers the same paths at smaller scale.

func randomField2D(rng *rand.Rand, nx, ny int) *field.Field2D {
	f := field.NewField2D(nx, ny)
	// A mixture of smooth modes and rough noise, amplitude varied per
	// seed, so the sweep visits very different bound/CP regimes.
	nmodes := 2 + rng.Intn(6)
	type mode struct{ ax, ay, px, py, amp float64 }
	modes := make([]mode, nmodes)
	for i := range modes {
		modes[i] = mode{
			ax:  (rng.Float64() + 0.2) * 6 * math.Pi / float64(nx),
			ay:  (rng.Float64() + 0.2) * 6 * math.Pi / float64(ny),
			px:  rng.Float64() * 7,
			py:  rng.Float64() * 7,
			amp: rng.Float64()*2 + 0.1,
		}
	}
	rough := rng.Float64() * 0.2
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			var u, v float64
			for _, m := range modes {
				u += m.amp * math.Sin(m.ax*float64(i)+m.px) * math.Cos(m.ay*float64(j)+m.py)
				v += m.amp * math.Cos(m.ax*float64(i)+m.py) * math.Sin(m.ay*float64(j)+m.px)
			}
			u += rng.NormFloat64() * rough
			v += rng.NormFloat64() * rough
			idx := f.Idx(i, j)
			f.U[idx] = float32(u)
			f.V[idx] = float32(v)
		}
	}
	return f
}

func TestSoakPreservation2D(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	specs := []core.Speculation{core.NoSpec, core.ST1, core.ST2, core.ST3, core.ST4}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		nx := 16 + rng.Intn(40)
		ny := 16 + rng.Intn(40)
		f := randomField2D(rng, nx, ny)
		tr, err := fixed.Fit(f.U, f.V)
		if err != nil {
			t.Fatal(err)
		}
		taurel := []float64{0.001, 0.01, 0.1}[rng.Intn(3)]
		tau := taurel * field.Range(f.U, f.V)
		if tau < tr.Resolution() {
			continue
		}
		orig := cp.DetectField2D(f, tr)
		spec := specs[rng.Intn(len(specs))]
		t.Run(fmt.Sprintf("seed%d_%dx%d_%v_tau%g", seed, nx, ny, spec, taurel), func(t *testing.T) {
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
				t.Fatalf("preservation failed: %v (of %d points)", rep, len(orig))
			}
		})
	}
}

func TestSoakPreservation3D(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(2000 + seed))
		n := 8 + rng.Intn(8)
		f := field.NewField3D(n, n, n)
		rough := rng.Float64()
		for i := range f.U {
			f.U[i] = float32(rng.NormFloat64() * rough)
			f.V[i] = float32(rng.NormFloat64() * rough)
			f.W[i] = float32(rng.NormFloat64() * rough)
		}
		tr, err := fixed.Fit(f.U, f.V, f.W)
		if err != nil {
			t.Fatal(err)
		}
		tau := 0.05 * field.Range(f.U, f.V, f.W)
		if tau < tr.Resolution() {
			continue
		}
		orig := cp.DetectField3D(f, tr)
		spec := []core.Speculation{core.NoSpec, core.ST2, core.ST4}[rng.Intn(3)]
		t.Run(fmt.Sprintf("seed%d_n%d_%v", seed, n, spec), func(t *testing.T) {
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
				t.Fatalf("preservation failed: %v (of %d points)", rep, len(orig))
			}
		})
	}
}
