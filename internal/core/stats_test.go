package core

import (
	"testing"

	"repro/internal/fixed"
	"repro/internal/telemetry"
)

// TestCompressStats2D checks that CompressBlock surfaces the
// encoder stats and that they are internally consistent.
func TestCompressStats2D(t *testing.T) {
	f := smooth2D(11, 48, 40)
	tr, err := fixed.Fit(f.U, f.V)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []Speculation{NoSpec, ST1, ST2, ST3, ST4} {
		blob, st, err := CompressBlock(block2D(f, tr, Options{Tau: 0.05, Spec: spec}))
		if err != nil {
			t.Fatalf("%v: %v", spec, err)
		}
		if len(blob) == 0 {
			t.Fatalf("%v: empty blob", spec)
		}
		if st.Vertices != f.NX*f.NY {
			t.Errorf("%v: Vertices = %d, want %d", spec, st.Vertices, f.NX*f.NY)
		}
		if st.Lossless > st.Vertices {
			t.Errorf("%v: Lossless %d exceeds Vertices %d", spec, st.Lossless, st.Vertices)
		}
		if spec == NoSpec && st.SpecTrials != 0 {
			t.Errorf("NoSpec must not speculate, got %d trials", st.SpecTrials)
		}
		if spec != NoSpec && st.SpecTrials == 0 {
			t.Errorf("%v: expected speculation trials", spec)
		}
		if st.SpecFails > st.SpecTrials {
			t.Errorf("%v: SpecFails %d exceeds SpecTrials %d", spec, st.SpecFails, st.SpecTrials)
		}
		if st.SpecCutoffs > st.SpecFails {
			t.Errorf("%v: SpecCutoffs %d exceeds SpecFails %d", spec, st.SpecCutoffs, st.SpecFails)
		}
	}
}

// TestCompressStats3D checks the 3D path reports the same stat fields
// with the same meaning (parity with the 2D engine).
func TestCompressStats3D(t *testing.T) {
	f := smooth3D(7, 14, 12, 10)
	tr, err := fixed.Fit(f.U, f.V, f.W)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []Speculation{NoSpec, ST1, ST4} {
		_, st, err := CompressBlock(block3D(f, tr, Options{Tau: 0.05, Spec: spec}))
		if err != nil {
			t.Fatalf("%v: %v", spec, err)
		}
		if st.Vertices != f.NX*f.NY*f.NZ {
			t.Errorf("%v: Vertices = %d, want %d", spec, st.Vertices, f.NX*f.NY*f.NZ)
		}
		if spec == NoSpec && st.SpecTrials != 0 {
			t.Errorf("NoSpec must not speculate, got %d trials", st.SpecTrials)
		}
		if spec != NoSpec && st.SpecTrials == 0 {
			t.Errorf("%v: expected speculation trials", spec)
		}
		if st.SpecCutoffs > st.SpecFails {
			t.Errorf("%v: SpecCutoffs %d exceeds SpecFails %d", spec, st.SpecCutoffs, st.SpecFails)
		}
	}
}

// TestTelemetryMatchesStats compresses with a collector attached and
// cross-checks every counter against the Stats struct, plus the stage
// span tree.
func TestTelemetryMatchesStats(t *testing.T) {
	f := smooth2D(3, 40, 32)
	tr, err := fixed.Fit(f.U, f.V)
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	_, st, err := CompressBlock(block2D(f, tr, Options{Tau: 0.02, Spec: ST3, Tel: tel}))
	if err != nil {
		t.Fatal(err)
	}
	snap := tel.Snapshot()
	p := "core.2d.st3."
	for name, want := range map[string]int{
		p + "vertices":        st.Vertices,
		p + "lossless":        st.Lossless,
		p + "relaxed":         st.Relaxed,
		p + "spec_trials":     st.SpecTrials,
		p + "spec_fails":      st.SpecFails,
		p + "spec_cutoffs":    st.SpecCutoffs,
		p + "literal_escapes": st.Literals,
	} {
		if got := snap.Counters[name]; got != int64(want) {
			t.Errorf("counter %s = %d, want %d", name, got, want)
		}
	}
	h, ok := snap.Histograms["core.2d.bound_exp_sym"]
	if !ok || h.Count != int64(st.Vertices) {
		t.Errorf("bound_exp_sym histogram count = %+v, want %d observations", h, st.Vertices)
	}
	if len(snap.Spans) != 1 || snap.Spans[0].Name != "core.compress2d" {
		t.Fatalf("expected one core.compress2d root span, got %+v", snap.Spans)
	}
	stages := make(map[string]bool)
	for _, c := range snap.Spans[0].Children {
		stages[c.Name] = true
	}
	for _, want := range []string{"fixed-convert", "cp-precompute", "process", "entropy-code"} {
		if !stages[want] {
			t.Errorf("missing stage span %q (got %v)", want, stages)
		}
	}
}

// TestTelemetryParentSpan checks that a caller-supplied span parents the
// encoder stages instead of a new root span.
func TestTelemetryParentSpan(t *testing.T) {
	f := smooth3D(5, 10, 10, 8)
	tr, err := fixed.Fit(f.U, f.V, f.W)
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	rank := tel.Span("rank0")
	enc, err := NewEncoder(block3D(f, tr, Options{Tau: 0.05, Tel: tel, TelSpan: rank}))
	if err != nil {
		t.Fatal(err)
	}
	enc.Run()
	if _, err := enc.Finish(); err != nil {
		t.Fatal(err)
	}
	rank.End()
	snap := tel.Snapshot()
	if len(snap.Spans) != 1 || snap.Spans[0].Name != "rank0" {
		t.Fatalf("expected stages under rank0, got %+v", snap.Spans)
	}
	if len(snap.Spans[0].Children) == 0 {
		t.Error("rank0 span has no stage children")
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Vertices: 1, Lossless: 2, Relaxed: 3, SpecTrials: 4, SpecFails: 5, SpecCutoffs: 6, Literals: 7}
	b := a
	a.Add(b)
	want := Stats{Vertices: 2, Lossless: 4, Relaxed: 6, SpecTrials: 8, SpecFails: 10, SpecCutoffs: 12, Literals: 14}
	if a != want {
		t.Errorf("Add = %+v, want %+v", a, want)
	}
}
