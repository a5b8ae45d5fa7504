package cpsz

import (
	"testing"

	"repro/internal/telemetry"
)

// TestTelemetryStages checks that a compression run with a collector
// produces the stage span tree and consistent per-vertex counters.
func TestTelemetryStages(t *testing.T) {
	f := smooth2D(31, 40, 36)
	tel := telemetry.New()
	if _, err := Compress([]int{f.NX, f.NY}, f.Components(), Options{Rel: 0.1, Scheme: Coupled, Tel: tel}); err != nil {
		t.Fatal(err)
	}
	snap := tel.Snapshot()
	p := "cpsz.2d.coupled."
	if got := snap.Counters[p+"vertices"]; got != int64(f.NX*f.NY) {
		t.Errorf("vertices = %d, want %d", got, f.NX*f.NY)
	}
	if snap.Counters[p+"lossless"] > snap.Counters[p+"vertices"] {
		t.Errorf("lossless %d exceeds vertices %d",
			snap.Counters[p+"lossless"], snap.Counters[p+"vertices"])
	}
	if len(snap.Spans) != 1 || snap.Spans[0].Name != "cpsz.compress2d" {
		t.Fatalf("expected one cpsz.compress2d root span, got %+v", snap.Spans)
	}
	stages := make(map[string]bool)
	for _, c := range snap.Spans[0].Children {
		stages[c.Name] = true
	}
	for _, want := range []string{"cp-detect", "quantize", "entropy-code"} {
		if !stages[want] {
			t.Errorf("missing stage span %q (got %v)", want, stages)
		}
	}
	if stages["derive-bounds"] {
		t.Error("coupled scheme must not run the decoupled derive-bounds stage")
	}
}

// TestTelemetryDecoupledStage checks the decoupled-only stage appears and
// that a caller-supplied parent span is respected.
func TestTelemetryDecoupledStage(t *testing.T) {
	f := smooth2D(32, 32, 30)
	tel := telemetry.New()
	parent := tel.Span("bench")
	if _, err := Compress([]int{f.NX, f.NY}, f.Components(), Options{Rel: 0.1, Scheme: Decoupled, Tel: tel, TelSpan: parent}); err != nil {
		t.Fatal(err)
	}
	parent.End()
	snap := tel.Snapshot()
	if len(snap.Spans) != 1 || snap.Spans[0].Name != "bench" {
		t.Fatalf("stages must nest under the caller's span, got %+v", snap.Spans)
	}
	found := false
	for _, c := range snap.Spans[0].Children {
		if c.Name == "derive-bounds" {
			found = true
		}
	}
	if !found {
		t.Error("decoupled run missing derive-bounds stage span")
	}
}

// TestTelemetryNames3D checks that the dimension in the counter and span
// names follows len(dims): a 3D call reports under cpsz.3d.* and
// cpsz.compress3d.
func TestTelemetryNames3D(t *testing.T) {
	f := smooth3D(33, 6)
	tel := telemetry.New()
	if _, err := Compress([]int{f.NX, f.NY, f.NZ}, f.Components(), Options{Rel: 0.05, Scheme: Decoupled, Tel: tel}); err != nil {
		t.Fatal(err)
	}
	snap := tel.Snapshot()
	if got := snap.Counters["cpsz.3d.decoupled.vertices"]; got != int64(len(f.U)) {
		t.Errorf("cpsz.3d.decoupled.vertices = %d, want %d", got, len(f.U))
	}
	if len(snap.Spans) != 1 || snap.Spans[0].Name != "cpsz.compress3d" {
		t.Fatalf("expected one cpsz.compress3d root span, got %+v", snap.Spans)
	}
}
