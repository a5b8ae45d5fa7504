package parallel

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/fixed"
	"repro/internal/mpi"
	"repro/internal/telemetry"
)

// TestDistributedTelemetry2D runs a ratio-oriented 2×2 compression with a
// collector attached and checks the per-rank span tree, the per-phase
// ghost-traffic counters, the mpi-layer counters, and the aggregated
// encoder stats.
func TestDistributedTelemetry2D(t *testing.T) {
	f := smooth2D(21, 64, 56)
	tr, err := fixed.Fit(f.Components()...)
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	grid, ranks := []int{2, 2}, 4
	res, err := CompressDistributed(f.Dims(), f.Components(), grid, tr,
		core.Options{Tau: 0.05, Spec: core.ST2, Tel: tel}, RatioOriented, mpi.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.EncStats.Vertices != f.NX*f.NY {
		t.Errorf("EncStats.Vertices = %d, want %d", res.EncStats.Vertices, f.NX*f.NY)
	}
	if res.EncStats.SpecTrials == 0 {
		t.Error("expected speculation trials in aggregated stats")
	}

	snap := tel.Snapshot()
	if len(snap.Spans) != 1 || snap.Spans[0].Name != "parallel.compress2d" {
		t.Fatalf("expected one parallel.compress2d root span, got %+v", snap.Spans)
	}
	run := snap.Spans[0]
	if len(run.Children) != ranks {
		t.Fatalf("run span has %d children, want %d ranks", len(run.Children), ranks)
	}
	for r, rank := range run.Children {
		if want := fmt.Sprintf("rank%d", r); rank.Name != want {
			t.Errorf("rank span %d named %q, want %q (order must be deterministic)", r, rank.Name, want)
		}
		stages := make(map[string]bool)
		for _, c := range rank.Children {
			stages[c.Name] = true
		}
		for _, want := range []string{"ghost-exchange-p1", "ghost-exchange-p2", "process-phase1", "process-phase2", "entropy-code"} {
			if !stages[want] {
				t.Errorf("rank %d missing stage span %q (got %v)", r, want, stages)
			}
		}
	}

	// 2×2 grid: each rank has 2 neighbors → 8 phase-1 messages; phase 2
	// flows only toward min-side neighbors → 4 messages.
	if got := snap.Counters["parallel.phase1.msgs"]; got != 8 {
		t.Errorf("phase1.msgs = %d, want 8", got)
	}
	if got := snap.Counters["parallel.phase2.msgs"]; got != 4 {
		t.Errorf("phase2.msgs = %d, want 4", got)
	}
	ghost := snap.Counters["parallel.phase1.bytes"] + snap.Counters["parallel.phase2.bytes"]
	if got := snap.Counters["mpi.p2p.bytes"]; got != ghost {
		t.Errorf("mpi.p2p.bytes = %d, want %d (all p2p traffic is ghost exchange)", got, ghost)
	}
	if got := snap.Counters["mpi.p2p.msgs"]; got != 12 {
		t.Errorf("mpi.p2p.msgs = %d, want 12", got)
	}
	if snap.Gauges["mpi.ranks"] != int64(ranks) {
		t.Errorf("mpi.ranks gauge = %d, want %d", snap.Gauges["mpi.ranks"], ranks)
	}
	if h := snap.Histograms["mpi.msg_bytes"]; h.Count != 12 {
		t.Errorf("mpi.msg_bytes count = %d, want 12", h.Count)
	}
}

// TestDistributedTelemetry3D checks the 3D run produces the same shape of
// rank span tree and that the aggregated stats match a single-node run of
// the same field (vertex count only; border handling differs).
func TestDistributedTelemetry3D(t *testing.T) {
	f := smooth3D(22, 12)
	tr, err := fixed.Fit(f.Components()...)
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	res, err := CompressDistributed(f.Dims(), f.Components(), []int{2, 1, 1}, tr,
		core.Options{Tau: 0.05, Spec: core.ST1, Tel: tel}, RatioOriented, mpi.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.EncStats.Vertices != f.NX*f.NY*f.NZ {
		t.Errorf("EncStats.Vertices = %d, want %d", res.EncStats.Vertices, f.NX*f.NY*f.NZ)
	}
	snap := tel.Snapshot()
	if len(snap.Spans) != 1 || snap.Spans[0].Name != "parallel.compress3d" {
		t.Fatalf("expected parallel.compress3d root span, got %+v", snap.Spans)
	}
	if len(snap.Spans[0].Children) != 2 {
		t.Fatalf("want 2 rank spans, got %d", len(snap.Spans[0].Children))
	}
	// One neighbor pair: 2 phase-1 messages, 1 phase-2 message.
	if got := snap.Counters["parallel.phase1.msgs"]; got != 2 {
		t.Errorf("phase1.msgs = %d, want 2", got)
	}
	if got := snap.Counters["parallel.phase2.msgs"]; got != 1 {
		t.Errorf("phase2.msgs = %d, want 1", got)
	}
}

// TestDistributedDecompressTelemetry checks the decompress run span.
func TestDistributedDecompressTelemetry(t *testing.T) {
	f := smooth2D(23, 48, 40)
	tr, err := fixed.Fit(f.Components()...)
	if err != nil {
		t.Fatal(err)
	}
	grid := []int{2, 1}
	res, err := CompressDistributed(f.Dims(), f.Components(), grid, tr, core.Options{Tau: 0.05}, RatioOriented, mpi.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	if _, _, err := DecompressDistributed(res.Blobs, f.Dims(), grid, mpi.Config{Tel: tel}); err != nil {
		t.Fatal(err)
	}
	snap := tel.Snapshot()
	if len(snap.Spans) != 1 || snap.Spans[0].Name != "parallel.decompress2d" {
		t.Fatalf("expected parallel.decompress2d root span, got %+v", snap.Spans)
	}
	for r, rank := range snap.Spans[0].Children {
		if len(rank.Children) != 1 || rank.Children[0].Name != "decode" {
			t.Errorf("rank %d: want a single decode span, got %+v", r, rank.Children)
		}
	}
}

// TestTelemetryDisabledDistributed makes sure a nil collector leaves the
// distributed path fully functional (the disabled fast path).
func TestTelemetryDisabledDistributed(t *testing.T) {
	f := smooth2D(24, 48, 40)
	tr, err := fixed.Fit(f.Components()...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CompressDistributed(f.Dims(), f.Components(), []int{2, 2}, tr,
		core.Options{Tau: 0.05, Spec: core.ST2}, RatioOriented, mpi.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.EncStats.Vertices != f.NX*f.NY {
		t.Errorf("EncStats must be populated even without telemetry: %+v", res.EncStats)
	}
}
