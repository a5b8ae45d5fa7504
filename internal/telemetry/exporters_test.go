package telemetry

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	// 100 observations 1..100: p50 ≈ 50, p90 ≈ 90, p99 ≈ 99, all within
	// one power-of-two bucket of truth.
	for v := int64(1); v <= 100; v++ {
		h.Observe(v)
	}
	s := h.snapshot()
	within2x := func(got, want int64) bool { return got >= want/2 && got <= 2*want }
	if !within2x(s.P50, 50) || !within2x(s.P90, 90) || !within2x(s.P99, 99) {
		t.Errorf("quantiles p50=%d p90=%d p99=%d, want within 2x of 50/90/99", s.P50, s.P90, s.P99)
	}
	if s.P50 > s.P90 || s.P90 > s.P99 {
		t.Errorf("quantiles not monotone: %d %d %d", s.P50, s.P90, s.P99)
	}
	if q := s.Quantile(0); q != s.Min {
		t.Errorf("q0 = %d, want min %d", q, s.Min)
	}
	if q := s.Quantile(1); q != s.Max {
		t.Errorf("q1 = %d, want max %d", q, s.Max)
	}
	if got := (HistSnapshot{}).Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %d", got)
	}
	// Live handle path.
	if got := h.Quantile(0.5); got != s.P50 {
		t.Errorf("Histogram.Quantile(0.5) = %d, want %d", got, s.P50)
	}
	var nilH *Histogram
	if nilH.Quantile(0.5) != 0 {
		t.Error("nil histogram quantile must be 0")
	}
}

func TestQuantileSingleValue(t *testing.T) {
	h := &Histogram{}
	h.Observe(1000)
	s := h.snapshot()
	if s.P50 != 1000 || s.P99 != 1000 {
		t.Errorf("single-value quantiles = %d/%d, want 1000 (clamped to min/max)", s.P50, s.P99)
	}
}

func TestQuantileRandomMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := &Histogram{}
	for i := 0; i < 5000; i++ {
		h.Observe(rng.Int63n(1 << 20))
	}
	s := h.snapshot()
	prev := int64(-1)
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		v := s.Quantile(q)
		if v < prev {
			t.Fatalf("quantile %g = %d < previous %d", q, v, prev)
		}
		if v < s.Min || v > s.Max {
			t.Fatalf("quantile %g = %d outside [%d,%d]", q, v, s.Min, s.Max)
		}
		prev = v
	}
}

// TestEndedSpanGuards pins the satellite contract: Child and AddChild on
// a nil or ended span are safe no-ops, like the rest of the nil-safe API.
func TestEndedSpanGuards(t *testing.T) {
	c := New()
	c.SetClock(fakeClock(time.Millisecond))
	sp := c.Span("root")
	sp.End()
	if got := sp.Child("late"); got != nil {
		t.Error("Child on an ended span must return nil")
	}
	sp.AddChild("late-virtual", time.Second)
	sp.End() // double End stays a no-op
	snap := c.Snapshot()
	if len(snap.Spans) != 1 || len(snap.Spans[0].Children) != 0 {
		t.Errorf("ended span grew children: %+v", snap.Spans)
	}
	// The nil handle returned by the guard keeps degrading safely.
	var nilSpan *Span
	if nilSpan.Child("x") != nil {
		t.Error("Child on nil span must return nil")
	}
	nilSpan.AddChild("x", time.Second)
	nilSpan.End()
}

func buildSampleCollector() *Collector {
	c := New()
	c.SetClock(fakeClock(time.Millisecond))
	run := c.Span("shm.compress2d")
	for i := 0; i < 4; i++ {
		s := run.Child("slab" + string(rune('0'+i)))
		s.End()
	}
	run.AddChild("exchange", 5*time.Millisecond)
	run.End()
	c.Counter("shm.compress2d.slab.panics").Add(2)
	c.Gauge("shm.compress2d.workers").Set(4)
	h := c.Histogram("core.2d.bound_exp_sym")
	for v := int64(1); v <= 64; v++ {
		h.Observe(v)
	}
	return c
}

func TestWritePrometheus(t *testing.T) {
	c := buildSampleCollector()
	var buf bytes.Buffer
	if err := c.WritePrometheus(&buf, ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE topozip_shm_compress2d_slab_panics_total counter",
		"topozip_shm_compress2d_slab_panics_total 2",
		"# TYPE topozip_shm_compress2d_workers gauge",
		"topozip_shm_compress2d_workers 4",
		"# TYPE topozip_core_2d_bound_exp_sym histogram",
		`topozip_core_2d_bound_exp_sym_bucket{le="+Inf"} 64`,
		"topozip_core_2d_bound_exp_sym_count 64",
		"topozip_core_2d_bound_exp_sym_p99",
		"# TYPE topozip_stage_latency_seconds summary",
		`topozip_stage_latency_seconds{stage="slab",quantile="0.99"}`,
		`topozip_stage_latency_seconds_count{stage="slab"} 4`,
		`topozip_stage_latency_seconds{stage="shm.compress2d",quantile="0.5"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Cumulative bucket counts must be non-decreasing and end at count.
	if strings.Count(out, "_bucket{le=") < 3 {
		t.Errorf("expected multiple le buckets:\n%s", out)
	}
	// A second export is byte-identical (ended spans, fixed instruments).
	var buf2 bytes.Buffer
	if err := c.WritePrometheus(&buf2, ""); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != out {
		t.Error("Prometheus export is not deterministic")
	}
	// Nil collector: no output, no error.
	var nilC *Collector
	var buf3 bytes.Buffer
	if err := nilC.WritePrometheus(&buf3, ""); err != nil || buf3.Len() != 0 {
		t.Errorf("nil collector wrote %q, err %v", buf3.String(), err)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	c := buildSampleCollector()
	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			PID  int     `json:"pid"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	// Root + 4 slab children + 1 virtual child.
	if len(doc.TraceEvents) != 6 {
		t.Fatalf("got %d trace events, want 6", len(doc.TraceEvents))
	}
	if doc.TraceEvents[0].Name != "shm.compress2d" || doc.TraceEvents[0].Ph != "X" {
		t.Errorf("root event = %+v", doc.TraceEvents[0])
	}
	for i, ev := range doc.TraceEvents {
		if ev.TID != 1 || ev.PID != 1 {
			t.Errorf("event %d on pid/tid %d/%d, want 1/1", i, ev.PID, ev.TID)
		}
		if ev.Ts < 0 || ev.Dur < 0 {
			t.Errorf("event %d has negative ts/dur: %+v", i, ev)
		}
	}
	// The virtual child lays out after its siblings, not at ts 0.
	last := doc.TraceEvents[5]
	if last.Name != "exchange" || last.Dur != 5000 {
		t.Errorf("virtual child = %+v, want exchange with dur 5000µs", last)
	}
	// Nil collector still writes a well-formed empty document.
	var buf2 bytes.Buffer
	var nilC *Collector
	if err := nilC.WriteChromeTrace(&buf2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf2.String(), `"traceEvents": []`) {
		t.Errorf("nil trace = %s", buf2.String())
	}
}

func TestManifestRoundTripAndRender(t *testing.T) {
	dir := t.TempDir()
	archive := filepath.Join(dir, "field.szp")
	path := ManifestPath(archive)
	if path != archive+".manifest.json" {
		t.Fatalf("ManifestPath = %q", path)
	}
	m := NewManifest("topozip")
	m.Command = "compress -in field.f32"
	m.Dataset = ManifestDataset{Dims: []int{64, 48}, Components: 2, RawBytes: 64 * 48 * 8, SHA256: strings.Repeat("ab", 32)}
	m.Codec = ManifestCodec{Name: "topozip-cp", FormatVersion: 2, Spec: "ST4", Tau: 0.05, TauRelative: 0.01}
	m.Run = ManifestRun{
		WallNS: int64(120 * time.Millisecond), ThroughputMBps: 123.4,
		CompressedBytes: 4096, Ratio: 6, Slabs: 8, Workers: 4,
		Panics: 1, DegradedSlabs: []int{3},
		Degradation: "shm: 1 panics, 1/8 slabs degraded to lossless [3]",
	}
	m.Bounds = ManifestBounds{Vertices: 3072, Lossless: 100, SpecTrials: 900, SpecFails: 40,
		BoundExp: &HistSnapshot{Count: 10, Min: 1, Max: 32, P50: 8, P90: 16, P99: 32}}
	m.Fidelity = &ManifestFidelity{TP: 27, Preserved: true, PSNRdB: 55.5, VerifiedUnixNS: m.CreatedUnixNS}
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Codec.Spec != "ST4" || back.Run.Slabs != 8 || back.Fidelity == nil || !back.Fidelity.Preserved {
		t.Errorf("round trip lost fields: %+v", back)
	}
	if len(back.Run.DegradedSlabs) != 1 || back.Run.DegradedSlabs[0] != 3 {
		t.Errorf("degraded slabs = %v", back.Run.DegradedSlabs)
	}
	var buf bytes.Buffer
	if err := back.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"topozip", "dims [64 48]", "spec ST4", "8 slabs on 4 workers",
		"degradation:", "p50=8 p90=16 p99=32", "TP=27", "preserved"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}

	// A future schema version must be refused, not misread.
	m.SchemaVersion = ManifestSchemaVersion + 1
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(path); err == nil {
		t.Error("newer schema version must fail to load")
	}
}
