package core

import (
	"testing"

	"repro/internal/cp"
	"repro/internal/datagen"
	"repro/internal/fixed"
)

func TestDisableRelaxationSoundButSmallerRatio(t *testing.T) {
	// The ocean field has large sign-uniform (and fully masked) regions
	// where the relaxation pays off; without it compression must still
	// preserve everything.
	f := datagen.Ocean(96, 72)
	tr, err := fixed.Fit(f.U, f.V)
	if err != nil {
		t.Fatal(err)
	}
	orig := cp.DetectField2D(f, tr)
	full, err := CompressField2D(f, tr, Options{Tau: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	norelax, err := CompressField2D(f, tr, Options{Tau: 0.05, DisableRelaxation: true})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Decompress2D(norelax)
	if err != nil {
		t.Fatal(err)
	}
	rep := cp.Compare(orig, cp.DetectField2D(g, tr))
	if !rep.Preserved() {
		t.Errorf("relaxation-free compression must stay sound: %v", rep)
	}
	if len(norelax) < len(full) {
		t.Errorf("relaxation should not hurt the ratio: %d vs %d bytes", len(full), len(norelax))
	}
}

func TestOrientationOnlyAblationCanBreakDetection(t *testing.T) {
	// Dropping the origin-substituted predicates of Theorem 2 preserves
	// sign(s) but not sign(s_i): over an ensemble of fields some
	// detection outcome flips, demonstrating the predicates are
	// necessary. (Each individual field may or may not expose it.)
	broke := false
	for seed := int64(0); seed < 8 && !broke; seed++ {
		f := smooth2D(100+seed, 48, 40)
		tr, err := fixed.Fit(f.U, f.V)
		if err != nil {
			t.Fatal(err)
		}
		orig := cp.DetectField2D(f, tr)
		blob, err := CompressField2D(f, tr, Options{Tau: 0.2, OrientationOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		g, err := Decompress2D(blob)
		if err != nil {
			t.Fatal(err)
		}
		rep := cp.Compare(orig, cp.DetectField2D(g, tr))
		if !rep.Preserved() {
			broke = true
		}
	}
	if !broke {
		t.Log("orientation-only derivation survived the ensemble; the ablation is probabilistic")
	}
	// Sanity: the full derivation never breaks on the same ensemble.
	for seed := int64(0); seed < 8; seed++ {
		f := smooth2D(100+seed, 48, 40)
		tr, _ := fixed.Fit(f.U, f.V)
		orig := cp.DetectField2D(f, tr)
		blob, err := CompressField2D(f, tr, Options{Tau: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		g, _ := Decompress2D(blob)
		if rep := cp.Compare(orig, cp.DetectField2D(g, tr)); !rep.Preserved() {
			t.Fatalf("full derivation broke on seed %d: %v", seed, rep)
		}
	}
}

func TestEncoderStats(t *testing.T) {
	f := datagen.Ocean(96, 72)
	tr, err := fixed.Fit(f.U, f.V)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewEncoder(block2D(f, tr, Options{Tau: 0.05}))
	if err != nil {
		t.Fatal(err)
	}
	enc.Run()
	st := enc.Stats()
	if st.Vertices != f.NX*f.NY {
		t.Errorf("Vertices = %d, want %d", st.Vertices, f.NX*f.NY)
	}
	if st.Lossless == 0 {
		t.Error("a field with critical points must have lossless vertices")
	}
	if st.Lossless > st.Vertices {
		t.Error("lossless count exceeds vertices")
	}
	if st.SpecTrials != 0 {
		t.Error("NoSpec must not speculate")
	}

	enc4, _ := NewEncoder(block2D(f, tr, Options{Tau: 0.05, Spec: ST4}))
	enc4.Run()
	st4 := enc4.Stats()
	if st4.SpecTrials == 0 {
		t.Error("ST4 must speculate")
	}
	if st4.SpecFails > st4.SpecTrials {
		t.Error("more failures than trials")
	}
}

func TestStats3D(t *testing.T) {
	f := smooth3D(200, 12, 12, 10)
	tr, err := fixed.Fit(f.U, f.V, f.W)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewEncoder(block3D(f, tr, Options{Tau: 0.05, Spec: ST2}))
	if err != nil {
		t.Fatal(err)
	}
	enc.Run()
	st := enc.Stats()
	if st.Vertices != len(f.U) {
		t.Errorf("Vertices = %d", st.Vertices)
	}
	if st.SpecTrials == 0 {
		t.Error("ST2 must speculate")
	}
}
