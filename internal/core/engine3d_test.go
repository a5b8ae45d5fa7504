package core

import (
	"testing"

	"repro/internal/cp"
	"repro/internal/field"
	"repro/internal/fixed"
)

// TestTwoPhasePair3D wires two vertically adjacent 3D blocks through the
// two-phase protocol by hand, covering the ghost-face plumbing directly.
func TestTwoPhasePair3D(t *testing.T) {
	nx, ny, nz := 12, 12, 16
	f := smooth3D(300, nx, ny, nz)
	tr, err := fixed.Fit(f.U, f.V, f.W)
	if err != nil {
		t.Fatal(err)
	}
	orig := cp.DetectField3D(f, tr)
	if len(orig) == 0 {
		t.Fatal("no critical points in test volume")
	}

	half := nz / 2
	sub := func(z0, d int) (u, v, w []float32) {
		n := nx * ny * d
		u = make([]float32, n)
		v = make([]float32, n)
		w = make([]float32, n)
		copy(u, f.U[z0*nx*ny:(z0+d)*nx*ny])
		copy(v, f.V[z0*nx*ny:(z0+d)*nx*ny])
		copy(w, f.W[z0*nx*ny:(z0+d)*nx*ny])
		return u, v, w
	}
	u0, v0, w0 := sub(0, half)
	u1, v1, w1 := sub(half, nz-half)
	opts := Options{Tau: 0.05}

	lower, err := NewEncoder(Block{
		Dims: []int{nx, ny, half}, Comps: [][]float32{u0, v0, w0}, Transform: tr, Opts: opts,
		Global:   []int{nx, ny, nz},
		Neighbor: [6]bool{SideMaxZ: true}, TwoPhase: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	upper, err := NewEncoder(Block{
		Dims: []int{nx, ny, nz - half}, Comps: [][]float32{u1, v1, w1}, Transform: tr, Opts: opts,
		Origin: []int{0, 0, half}, Global: []int{nx, ny, nz},
		Neighbor: [6]bool{SideMinZ: true}, TwoPhase: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Phase-1 exchange (originals).
	if err := lower.SetGhostPlane(SideMaxZ, upper.BorderPlane(SideMinZ)); err != nil {
		t.Fatal(err)
	}
	if err := upper.SetGhostPlane(SideMinZ, lower.BorderPlane(SideMaxZ)); err != nil {
		t.Fatal(err)
	}
	lower.Prepare()
	upper.Prepare()
	lower.RunPhase1()
	upper.RunPhase1()

	// Phase-2 exchange: the upper block's min-z face is now decompressed.
	if err := lower.SetGhostPlane(SideMaxZ, upper.BorderPlane(SideMinZ)); err != nil {
		t.Fatal(err)
	}
	lower.RunPhase2()
	upper.RunPhase2()

	// In-process reconstruction must agree with the decoded blobs.
	ld := lower.Decompressed()
	lu, lv, lw := ld[0], ld[1], ld[2]
	lblob, err := lower.Finish()
	if err != nil {
		t.Fatal(err)
	}
	ublob, err := upper.Finish()
	if err != nil {
		t.Fatal(err)
	}
	lf, err := Decompress3D(lblob)
	if err != nil {
		t.Fatal(err)
	}
	for i := range lu {
		if lu[i] != lf.U[i] || lv[i] != lf.V[i] || lw[i] != lf.W[i] {
			t.Fatal("in-process and decoded 3D reconstructions diverge")
		}
	}
	uf, err := Decompress3D(ublob)
	if err != nil {
		t.Fatal(err)
	}

	g := field.NewField3D(nx, ny, nz)
	copy(g.U, lf.U)
	copy(g.V, lf.V)
	copy(g.W, lf.W)
	copy(g.U[half*nx*ny:], uf.U)
	copy(g.V[half*nx*ny:], uf.V)
	copy(g.W[half*nx*ny:], uf.W)
	rep := cp.Compare(orig, cp.DetectField3D(g, tr))
	if !rep.Preserved() {
		t.Fatalf("two-phase 3D pair broke critical points: %v", rep)
	}
}

func TestGhostFaceErrors3D(t *testing.T) {
	f := smooth3D(301, 6, 6, 6)
	tr, _ := fixed.Fit(f.U, f.V, f.W)
	b := block3D(f, tr, Options{Tau: 0.05})
	b.Neighbor, b.TwoPhase = [6]bool{SideMaxX: true}, true
	enc, err := NewEncoder(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.SetGhostPlane(SideMinX, [][]int64{nil, nil, nil}); err == nil {
		t.Error("ghost on non-neighbor side must fail")
	}
	if err := enc.SetGhostPlane(SideMaxX, [][]int64{make([]int64, 3), make([]int64, 3), make([]int64, 3)}); err == nil {
		t.Error("wrong face size must fail")
	}
	if err := enc.SetGhostPlane(SideMaxX, [][]int64{make([]int64, 36), make([]int64, 36)}); err == nil {
		t.Error("wrong component count must fail")
	}
	if err := enc.SetGhostPlane(99, nil); err == nil {
		t.Error("invalid side must fail")
	}
	p := enc.BorderPlane(SideMaxX)
	if len(p) != 3 || len(p[0]) != 36 || len(p[1]) != 36 || len(p[2]) != 36 {
		t.Errorf("face of %d components, sizes %d", len(p), len(p[0]))
	}
}

func TestGhostLineErrors2D(t *testing.T) {
	f := smooth2D(302, 8, 8)
	tr, _ := fixed.Fit(f.U, f.V)
	b := block2D(f, tr, Options{Tau: 0.05})
	b.Neighbor, b.TwoPhase = [6]bool{SideMinY: true}, true
	enc, err := NewEncoder(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.SetGhostPlane(SideMaxY, [][]int64{nil, nil}); err == nil {
		t.Error("ghost on non-neighbor side must fail")
	}
	if err := enc.SetGhostPlane(SideMinY, [][]int64{make([]int64, 2), make([]int64, 2)}); err == nil {
		t.Error("wrong line size must fail")
	}
	if err := enc.SetGhostPlane(SideMinZ, [][]int64{nil, nil}); err == nil {
		t.Error("3D side on 2D block must fail")
	}
	p := enc.BorderPlane(SideMinX)
	if len(p) != 2 || len(p[0]) != 8 || len(p[1]) != 8 {
		t.Errorf("line of %d components, sizes %d", len(p), len(p[0]))
	}
	if enc.BorderPlane(SideMinZ) != nil {
		t.Error("3D side on 2D block must have no border plane")
	}
}

func TestFinishTwice(t *testing.T) {
	f := smooth2D(303, 8, 8)
	tr, _ := fixed.Fit(f.U, f.V)
	enc, _ := NewEncoder(block2D(f, tr, Options{Tau: 0.05}))
	enc.Run()
	if _, err := enc.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := enc.Finish(); err == nil {
		t.Error("double Finish must fail")
	}
}

func TestSubResolutionTauRejected(t *testing.T) {
	f := smooth2D(304, 8, 8)
	tr, _ := fixed.Fit(f.U, f.V)
	if _, err := CompressField2D(f, tr, Options{Tau: tr.Resolution() / 4}); err == nil {
		t.Error("sub-resolution Tau must be rejected (2D)")
	}
	g := smooth3D(305, 6, 6, 6)
	tr3, _ := fixed.Fit(g.U, g.V, g.W)
	if _, err := CompressField3D(g, tr3, Options{Tau: tr3.Resolution() / 4}); err == nil {
		t.Error("sub-resolution Tau must be rejected (3D)")
	}
}
