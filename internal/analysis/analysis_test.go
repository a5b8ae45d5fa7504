package analysis

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/cp"
	"repro/internal/datagen"
	"repro/internal/field"
)

func TestPSNRIdentical(t *testing.T) {
	a := [][]float32{{1, 2, 3}, {4, 5, 6}}
	if got := PSNR(a, a); !math.IsInf(got, 1) {
		t.Errorf("identical data PSNR = %v, want +Inf", got)
	}
}

func TestPSNRKnownValue(t *testing.T) {
	orig := [][]float32{{0, 1}}
	dec := [][]float32{{0.1, 0.9}}
	// rmse = 0.1, range = 1 ⇒ 20 dB.
	if got := PSNR(orig, dec); math.Abs(got-20) > 1e-4 {
		t.Errorf("PSNR = %v, want 20", got)
	}
}

func TestPSNRMonotoneInError(t *testing.T) {
	orig := [][]float32{{0, 1, 2, 3}}
	small := [][]float32{{0.01, 1.01, 2.01, 3.01}}
	large := [][]float32{{0.3, 1.3, 2.3, 3.3}}
	if PSNR(orig, small) <= PSNR(orig, large) {
		t.Error("smaller error should have larger PSNR")
	}
}

func TestMaxAbsError(t *testing.T) {
	orig := [][]float32{{1, 2}, {3, 4}}
	dec := [][]float32{{1.5, 2}, {3, 3}}
	if got := MaxAbsError(orig, dec); got != 1 {
		t.Errorf("MaxAbsError = %v", got)
	}
}

func TestBitRateAndRatio(t *testing.T) {
	if got := BitRate(100, 100); got != 8 {
		t.Errorf("BitRate = %v", got)
	}
	if got := Ratio(100, 100); got != 4 {
		t.Errorf("Ratio = %v", got)
	}
	if BitRate(1, 0) != 0 || Ratio(0, 5) != 0 {
		t.Error("degenerate cases")
	}
}

func TestStreamlineFollowsUniformFlow(t *testing.T) {
	f := field.NewField2D(16, 16)
	for i := range f.U {
		f.U[i] = 1
	}
	pts := TraceStreamline2D(f, 1, 8, 0.5, 10)
	if len(pts) != 11 {
		t.Fatalf("trace has %d points", len(pts))
	}
	last := pts[len(pts)-1]
	if math.Abs(last.X-6) > 1e-9 || math.Abs(last.Y-8) > 1e-9 {
		t.Errorf("endpoint %v, want (6,8)", last)
	}
}

func TestStreamlineStopsAtZeroField(t *testing.T) {
	f := field.NewField2D(8, 8)
	pts := TraceStreamline2D(f, 4, 4, 0.5, 100)
	if len(pts) != 1 {
		t.Errorf("zero field trace has %d points", len(pts))
	}
}

func TestStreamline3DCirclesVortex(t *testing.T) {
	n := 32
	f := field.NewField3D(n, n, 3)
	for k := 0; k < 3; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				idx := f.Idx(i, j, k)
				f.U[idx] = float32(-(float64(j) - 15.5))
				f.V[idx] = float32(float64(i) - 15.5)
			}
		}
	}
	pts := TraceStreamline3D(f, 20, 15.5, 1, 0.02, 500)
	if len(pts) < 100 {
		t.Fatalf("vortex trace too short: %d", len(pts))
	}
	// Radius should be roughly conserved.
	r0 := math.Hypot(pts[0].X-15.5, pts[0].Y-15.5)
	rN := math.Hypot(pts[len(pts)-1].X-15.5, pts[len(pts)-1].Y-15.5)
	if math.Abs(r0-rN) > 0.5 {
		t.Errorf("radius drifted from %v to %v", r0, rN)
	}
}

func TestStreamlineDivergenceZeroForIdentical(t *testing.T) {
	f := datagen.Nek5000(16, 16, 16)
	seeds := DiagonalSeeds3D(f, 5)
	a := TraceAll3D(f, seeds, 0.2, 50)
	if d := StreamlineDivergence(a, a); d != 0 {
		t.Errorf("self-divergence = %v", d)
	}
}

func TestStreamlineDivergenceGrowsWithPerturbation(t *testing.T) {
	f := datagen.Nek5000(16, 16, 16)
	g := f.Clone()
	h := f.Clone()
	for i := range g.U {
		g.U[i] += 0.01
		h.U[i] += 0.1
	}
	seeds := DiagonalSeeds3D(f, 5)
	base := TraceAll3D(f, seeds, 0.2, 50)
	dSmall := StreamlineDivergence(base, TraceAll3D(g, seeds, 0.2, 50))
	dLarge := StreamlineDivergence(base, TraceAll3D(h, seeds, 0.2, 50))
	if !(dSmall < dLarge) {
		t.Errorf("divergence should grow with perturbation: %v vs %v", dSmall, dLarge)
	}
}

func TestStreamlineDivergenceMismatch(t *testing.T) {
	if !math.IsNaN(StreamlineDivergence(nil, nil)) {
		t.Error("empty input should be NaN")
	}
}

func TestLICDeterministicAndStructured(t *testing.T) {
	f := datagen.Ocean(64, 48)
	a := LIC(f, 8, 1)
	b := LIC(f, 8, 1)
	if !bytes.Equal(a, b) {
		t.Error("LIC not deterministic")
	}
	if len(a) != 64*48 {
		t.Errorf("LIC size %d", len(a))
	}
	// Convolution along flow reduces variance relative to raw noise:
	// neighbouring pixels along x should correlate.
	var diff, count float64
	for j := 0; j < 48; j++ {
		for i := 1; i < 64; i++ {
			d := float64(a[j*64+i]) - float64(a[j*64+i-1])
			diff += d * d
			count++
		}
	}
	if diff/count > 3000 {
		t.Errorf("LIC image looks like raw noise (mean sq diff %v)", diff/count)
	}
}

func TestPGMAndPPMOutput(t *testing.T) {
	img := []uint8{0, 128, 255, 64}
	color := OverlayCriticalPoints(img, 2, 2, []cp.Point{{Pos: [3]float64{0, 0, 0}, Type: cp.TypeSaddle}})
	if color[0].G <= color[0].R {
		t.Error("saddle marker should be green")
	}
	var buf bytes.Buffer
	if err := WritePPM(&buf, color, 2, 2); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("P6\n2 2\n255\n")) {
		t.Error("bad PPM header")
	}
}
