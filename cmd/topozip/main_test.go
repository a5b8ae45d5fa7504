package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/archive"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/field"
	"repro/internal/fixed"
	"repro/internal/flightrec"
	"repro/internal/shm"
	"repro/internal/telemetry"
)

func TestParseMemBudget(t *testing.T) {
	cases := []struct {
		in   string
		want int64
	}{
		{"", 0},
		{"512", 512},
		{"64KiB", 64 << 10},
		{"2MiB", 2 << 20},
		{"1GiB", 1 << 30},
		{"2M", 2 << 20},
		{"1.5M", 3 << 19},
		{"500MB", 500 * 1000 * 1000},
		{"128B", 128},
		{" 4 MiB ", 4 << 20},
	}
	for _, tc := range cases {
		got, err := parseMemBudget(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("parseMemBudget(%q) = %d, %v; want %d", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"x", "-1M", "0", "MiB", "1QiB"} {
		if _, err := parseMemBudget(bad); err == nil {
			t.Errorf("parseMemBudget(%q) accepted", bad)
		}
	}
}

// TestCLIStreamingWorkflow drives the out-of-core path end to end: a
// -max-mem compress must produce the same container as the unbudgeted
// run with the same slab count, verify streaming must pass, and the
// budgeted decode must reproduce the unbudgeted decode's bytes. The
// second bound sits where a float32 and a float64 value range round to
// different absolute bounds, so it catches any entry point computing
// the relative bound its own way.
func TestCLIStreamingWorkflow(t *testing.T) {
	dir := t.TempDir()
	raw := filepath.Join(dir, "ocean.f32")
	comp := filepath.Join(dir, "ocean.szp")
	compMem := filepath.Join(dir, "mem.szp")
	back := filepath.Join(dir, "back.f32")

	if err := cmdGen([]string{"-data", "ocean", "-dims", "96x80", "-out", raw}); err != nil {
		t.Fatal(err)
	}
	for _, tau := range []string{"0.01", "0.0097565020988675134"} {
		if err := cmdCompress([]string{"-in", raw, "-dims", "96x80", "-tau", tau, "-spec", "ST2",
			"-slabs", "6", "-max-mem", "1MiB", "-out", comp}); err != nil {
			t.Fatal(err)
		}
		// Same explicit slab count without a budget: the containers must
		// be byte-identical — the budget bounds memory, never changes
		// output.
		if err := cmdCompress([]string{"-in", raw, "-dims", "96x80", "-tau", tau, "-spec", "ST2",
			"-slabs", "6", "-workers", "2", "-out", compMem}); err != nil {
			t.Fatal(err)
		}
		if a, b := readFile(t, comp), readFile(t, compMem); !bytes.Equal(a, b) {
			t.Fatalf("tau %s: budgeted container (%d bytes) differs from unbudgeted (%d bytes)", tau, len(a), len(b))
		}
		ma, mb := readManifest(t, comp), readManifest(t, compMem)
		if ma.Codec.Tau != mb.Codec.Tau {
			t.Fatalf("tau %s: manifests record absolute bounds %v and %v", tau, ma.Codec.Tau, mb.Codec.Tau)
		}
	}
	if err := cmdVerify([]string{"-orig", raw, "-comp", comp, "-max-mem", "1MiB"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdDecompress([]string{"-in", comp, "-out", back, "-max-mem", "1MiB"}); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(back)
	if err != nil || st.Size() != 96*80*2*4 {
		t.Fatalf("decompressed size %v, err %v", st, err)
	}
	backMem := filepath.Join(dir, "backmem.f32")
	if err := cmdDecompress([]string{"-in", comp, "-out", backMem}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readFile(t, back), readFile(t, backMem)) {
		t.Fatal("budgeted and unbudgeted decompress outputs differ")
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func readManifest(t *testing.T, archivePath string) *telemetry.Manifest {
	t.Helper()
	man, err := telemetry.ReadManifest(telemetry.ManifestPath(archivePath))
	if err != nil {
		t.Fatal(err)
	}
	return man
}

// TestCLIMatchesCodec pins that the CLI runs the codec's call path:
// compress -workers 2 and the default compress both write the bytes
// codec.Compress (and so topozipd) writes for Pipeline{Workers: 2}, and
// that one-slab container holds exactly the single-node block for the
// same transform and bound.
func TestCLIMatchesCodec(t *testing.T) {
	dir := t.TempDir()
	raw := filepath.Join(dir, "ocean.f32")
	comp := filepath.Join(dir, "ocean.szp")
	if err := cmdGen([]string{"-data", "ocean", "-dims", "64x48", "-out", raw}); err != nil {
		t.Fatal(err)
	}
	f := datagen.Ocean(64, 48)
	cdc, err := codec.Lookup(codec.FormatCP, 0)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	res, err := cdc.Compress(field.Mem2D(f), &want, codec.Params{Dims: []int{64, 48}, Tau: 0.01, Spec: "ST1",
		Pipeline: shm.Options{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := cmdCompress([]string{"-in", raw, "-dims", "64x48", "-tau", "0.01", "-spec", "ST1",
		"-workers", "2", "-out", comp}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readFile(t, comp), want.Bytes()) {
		t.Fatal("compress -workers 2 differs from codec.Compress with Pipeline{Workers: 2}")
	}

	if err := cmdCompress([]string{"-in", raw, "-dims", "64x48", "-tau", "0.01", "-spec", "ST1", "-out", comp}); err != nil {
		t.Fatal(err)
	}
	data := readFile(t, comp)
	if !bytes.Equal(data, want.Bytes()) {
		t.Fatal("default compress differs from codec.Compress: the slab count must not depend on -workers")
	}
	sr, err := archive.OpenStream(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if sr.Version() != 3 || sr.Steps() != 1 {
		t.Fatalf("default container: version %d, %d steps; want 3 and 1", sr.Version(), sr.Steps())
	}
	blob, err := sr.ReadBlobInto(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := fixed.Fit(f.U, f.V)
	if err != nil {
		t.Fatal(err)
	}
	single, err := core.CompressField2D(f, tr, core.Options{Tau: res.TauAbs, Spec: core.ST1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, single) {
		t.Fatal("default one-slab blob differs from core.CompressField2D")
	}
	if tau := readManifest(t, comp).Codec.Tau; tau != res.TauAbs {
		t.Fatalf("default path recorded tau %v, codec resolved %v", tau, res.TauAbs)
	}
}

// TestCLIReadsBareBlock pins backward compatibility with files the
// single-block default path used to write: testdata holds such a bare
// block (Ocean 48x40, -tau 0.01 -spec ST2). decompress must reproduce
// the block decoder's floats and verify must pass.
func TestCLIReadsBareBlock(t *testing.T) {
	const fixture = "testdata/ocean48x40-st2-bare.szp"
	dir := t.TempDir()
	raw := filepath.Join(dir, "ocean.f32")
	comp := filepath.Join(dir, "bare.szp")
	back := filepath.Join(dir, "back.f32")
	if err := cmdGen([]string{"-data", "ocean", "-dims", "48x40", "-out", raw}); err != nil {
		t.Fatal(err)
	}
	blob := readFile(t, fixture)
	if err := os.WriteFile(comp, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdDecompress([]string{"-in", comp, "-out", back}); err != nil {
		t.Fatal(err)
	}
	want, err := core.Decompress2D(blob)
	if err != nil {
		t.Fatal(err)
	}
	var wantRaw bytes.Buffer
	if err := field.WriteRaw(&wantRaw, want.U, want.V); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readFile(t, back), wantRaw.Bytes()) {
		t.Fatal("decompressed bare block differs from core.Decompress2D")
	}
	for _, extra := range [][]string{nil, {"-max-mem", "1MiB"}} {
		if err := cmdVerify(append([]string{"-orig", raw, "-comp", comp}, extra...)); err != nil {
			t.Fatalf("verify %v: %v", extra, err)
		}
	}
	if err := cmdInfo([]string{"-in", comp}); err != nil {
		t.Fatal(err)
	}
}

// TestCLIWorkflow drives gen → compress → verify → decompress → info
// in-process, the full user path.
func TestCLIWorkflow(t *testing.T) {
	dir := t.TempDir()
	raw := filepath.Join(dir, "ocean.f32")
	comp := filepath.Join(dir, "ocean.szp")
	back := filepath.Join(dir, "back.f32")

	if err := cmdGen([]string{"-data", "ocean", "-dims", "48x40", "-out", raw}); err != nil {
		t.Fatal(err)
	}
	if err := cmdCompress([]string{"-in", raw, "-dims", "48x40", "-tau", "0.01", "-spec", "ST2", "-out", comp}); err != nil {
		t.Fatal(err)
	}
	if err := cmdVerify([]string{"-orig", raw, "-comp", comp}); err != nil {
		t.Fatal(err)
	}
	if err := cmdInfo([]string{"-in", comp}); err != nil {
		t.Fatal(err)
	}
	if err := cmdDecompress([]string{"-in", comp, "-out", back}); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(back)
	if err != nil || st.Size() != 48*40*2*4 {
		t.Fatalf("decompressed size %v, err %v", st, err)
	}
}

// TestCLIMetricsAndProfiles checks the observability flags: -metrics
// produces a JSON document with the stage span tree and counters, and the
// pprof flags produce non-empty profile files.
func TestCLIMetricsAndProfiles(t *testing.T) {
	dir := t.TempDir()
	raw := filepath.Join(dir, "ocean.f32")
	comp := filepath.Join(dir, "ocean.szp")
	metrics := filepath.Join(dir, "m.json")
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")

	if err := cmdGen([]string{"-data", "ocean", "-dims", "48x40", "-out", raw}); err != nil {
		t.Fatal(err)
	}
	if err := cmdCompress([]string{"-in", raw, "-dims", "48x40", "-tau", "0.01", "-spec", "ST3",
		"-out", comp, "-metrics", metrics, "-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
		Spans    []struct {
			Name     string            `json:"name"`
			Children []json.RawMessage `json:"children"`
		} `json:"spans"`
	}
	b, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatalf("metrics file is not valid JSON: %v", err)
	}
	if snap.Counters["core.2d.st3.vertices"] != 48*40 {
		t.Errorf("vertices counter = %d, want %d", snap.Counters["core.2d.st3.vertices"], 48*40)
	}
	// One run span of the slab pipeline; the default run is one slab,
	// whose span holds the kernel's stage spans.
	if len(snap.Spans) != 1 || snap.Spans[0].Name != "shm.compress2d" || len(snap.Spans[0].Children) != 1 {
		t.Fatalf("unexpected span tree: %+v", snap.Spans)
	}
	var slab struct {
		Name     string `json:"name"`
		Children []struct {
			Name string `json:"name"`
		} `json:"children"`
	}
	if err := json.Unmarshal(snap.Spans[0].Children[0], &slab); err != nil {
		t.Fatal(err)
	}
	stages := map[string]bool{}
	for _, c := range slab.Children {
		stages[c.Name] = true
	}
	if slab.Name != "slab0" || !stages["process"] || !stages["entropy-code"] {
		t.Errorf("unexpected slab span: %+v", slab)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil || st.Size() == 0 {
			t.Errorf("profile %s missing or empty (err %v)", p, err)
		}
	}
}

func TestCLISeriesWorkflow(t *testing.T) {
	dir := t.TempDir()
	for s := 0; s < 3; s++ {
		path := filepath.Join(dir, fmt.Sprintf("frame%03d.f32", s))
		if err := cmdGen([]string{"-data", "turbulence", "-dims", "12x12x12",
			"-seed", fmt.Sprint(s), "-out", path}); err != nil {
			t.Fatal(err)
		}
	}
	arch := filepath.Join(dir, "series.scar")
	if err := cmdPackSeries([]string{"-in", filepath.Join(dir, "frame%03d.f32"),
		"-steps", "3", "-dims", "12x12x12", "-tau", "0.02", "-out", arch}); err != nil {
		t.Fatal(err)
	}
	if err := cmdTrack([]string{"-in", arch, "-radius", "3"}); err != nil {
		t.Fatal(err)
	}
}

func TestCLIErrors(t *testing.T) {
	if err := cmdGen([]string{"-data", "unknown", "-out", filepath.Join(t.TempDir(), "x")}); err == nil {
		t.Error("unknown dataset must fail")
	}
	if err := cmdGen([]string{"-data", "ocean", "-dims", "8x8x8", "-out", filepath.Join(t.TempDir(), "x")}); err == nil {
		t.Error("3D dims for ocean must fail")
	}
	if err := cmdCompress([]string{}); err == nil {
		t.Error("missing flags must fail")
	}
	if err := cmdInfo([]string{"-in", "/nonexistent"}); err == nil {
		t.Error("missing file must fail")
	}
	if err := cmdTrack([]string{"-in", "/nonexistent"}); err == nil {
		t.Error("missing archive must fail")
	}
	// A bound the codec cannot honour fails on every pipeline shape; it
	// never degrades the slabs to lossless storage and exits cleanly.
	dir := t.TempDir()
	raw := filepath.Join(dir, "ocean.f32")
	if err := cmdGen([]string{"-data", "ocean", "-dims", "48x40", "-out", raw}); err != nil {
		t.Fatal(err)
	}
	for _, tau := range [][]string{{"-tau", "0"}, {"-abs", "-tau", "-0.5"}} {
		for _, shape := range [][]string{nil, {"-workers", "2"}, {"-max-mem", "1MiB"}} {
			args := append([]string{"-in", raw, "-dims", "48x40", "-out", filepath.Join(dir, "x.szp")}, tau...)
			if err := cmdCompress(append(args, shape...)); err == nil {
				t.Errorf("compress %v %v must fail", tau, shape)
			}
		}
	}
}

// TestCLIManifestLifecycle pins the manifest contract: compress writes a
// manifest beside the archive, verify writes its fidelity verdict back
// into it and surfaces bound quantiles in the summary line, and info
// renders it.
func TestCLIManifestLifecycle(t *testing.T) {
	dir := t.TempDir()
	raw := filepath.Join(dir, "ocean.f32")
	comp := filepath.Join(dir, "ocean.szp")
	metrics := filepath.Join(dir, "m.json")

	if err := cmdGen([]string{"-data", "ocean", "-dims", "48x40", "-out", raw}); err != nil {
		t.Fatal(err)
	}
	if err := cmdCompress([]string{"-in", raw, "-dims", "48x40", "-tau", "0.01", "-spec", "ST2",
		"-out", comp, "-metrics", metrics}); err != nil {
		t.Fatal(err)
	}
	man, err := telemetry.ReadManifest(telemetry.ManifestPath(comp))
	if err != nil {
		t.Fatal(err)
	}
	if man.Tool != "topozip" || man.Codec.FormatVersion != core.FormatVersion || man.Codec.Spec != "ST2" {
		t.Errorf("manifest header: %+v", man)
	}
	if len(man.Dataset.SHA256) != 64 || man.Dataset.RawBytes != 48*40*2*4 {
		t.Errorf("dataset block: %+v", man.Dataset)
	}
	if man.Bounds.Vertices != 48*40 || man.Bounds.SpecTrials == 0 {
		t.Errorf("bounds block: %+v", man.Bounds)
	}
	if man.Bounds.BoundExp == nil || man.Bounds.BoundExp.Count == 0 {
		t.Errorf("metrics-enabled run must embed the bound-exponent histogram: %+v", man.Bounds.BoundExp)
	}
	if man.Fidelity != nil {
		t.Error("fidelity must be absent before verify")
	}

	if err := cmdVerify([]string{"-orig", raw, "-comp", comp}); err != nil {
		t.Fatal(err)
	}
	man, err = telemetry.ReadManifest(telemetry.ManifestPath(comp))
	if err != nil {
		t.Fatal(err)
	}
	if man.Fidelity == nil || !man.Fidelity.Preserved || man.Fidelity.VerifiedUnixNS == 0 {
		t.Errorf("verify must write the fidelity verdict back: %+v", man.Fidelity)
	}
	if err := cmdInfo([]string{"-in", comp}); err != nil {
		t.Fatal(err)
	}
}

// TestCLIFlightRecorderDump pins the acceptance criterion: a
// faults-enabled run that degrades leaves a flight-recorder JSON dump
// naming each degraded slab and the event sequence.
func TestCLIFlightRecorderDump(t *testing.T) {
	dir := t.TempDir()
	raw := filepath.Join(dir, "ocean.f32")
	comp := filepath.Join(dir, "ocean.szp")

	if err := cmdGen([]string{"-data", "ocean", "-dims", "64x48", "-out", raw}); err != nil {
		t.Fatal(err)
	}
	if err := cmdCompress([]string{"-in", raw, "-dims", "64x48", "-tau", "0.01", "-spec", "ST2",
		"-out", comp, "-slabs", "4", "-faults", "seed=1,panic=1"}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(comp + ".flightrec.json")
	if err != nil {
		t.Fatalf("degraded run must dump the flight recorder: %v", err)
	}
	var dump flightrec.Dump
	if err := json.Unmarshal(b, &dump); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if dump.Recorded == 0 || len(dump.Events) == 0 {
		t.Fatalf("empty dump: %+v", dump)
	}
	// panic=1 fails every slab's one encode: each of the 4 slabs records
	// exactly one panic and one degradation, attributed to its index.
	panics, degraded := map[int32]int{}, map[int32]int{}
	for _, ev := range dump.Events {
		switch ev.Kind {
		case flightrec.KindPanic:
			panics[ev.Slab]++
		case flightrec.KindDegraded:
			degraded[ev.Slab]++
		}
	}
	for slab := int32(0); slab < 4; slab++ {
		if panics[slab] != 1 || degraded[slab] != 1 {
			t.Errorf("slab %d: %d panic and %d degraded events, want 1 each", slab, panics[slab], degraded[slab])
		}
	}
	if len(panics) != 4 || len(degraded) != 4 {
		t.Errorf("events attributed to slabs outside 0-3: panics %v, degraded %v", panics, degraded)
	}
	// The manifest cross-references the dump and the degradation.
	man, err := telemetry.ReadManifest(telemetry.ManifestPath(comp))
	if err != nil {
		t.Fatal(err)
	}
	if man.Run.FlightRecorder == "" || len(man.Run.DegradedSlabs) == 0 || man.Run.Degradation == "" {
		t.Errorf("manifest must record the degradation outcome: %+v", man.Run)
	}
	// A degraded archive still verifies: every critical point survives.
	if err := cmdVerify([]string{"-orig", raw, "-comp", comp}); err != nil {
		t.Fatal(err)
	}
}

// captureStdout runs fn and returns what it printed to os.Stdout.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	ferr := fn()
	w.Close()
	return string(<-out), ferr
}

// TestCLITrackCorruptSlabContainer pins that track reads time series
// only: the slabs of one field, even of equal height, are not time
// steps.
func TestCLITrackCorruptSlabContainer(t *testing.T) {
	dir := t.TempDir()
	raw := filepath.Join(dir, "ocean.f32")
	comp := filepath.Join(dir, "ocean.szp")
	if err := cmdGen([]string{"-data", "ocean", "-dims", "96x72", "-out", raw}); err != nil {
		t.Fatal(err)
	}
	if err := cmdCompress([]string{"-in", raw, "-dims", "96x72", "-slabs", "4", "-out", comp}); err != nil {
		t.Fatal(err)
	}
	if err := cmdTrack([]string{"-in", comp}); !errors.Is(err, archive.ErrCorrupt) {
		t.Fatalf("track on a 4-slab container: err = %v, want archive.ErrCorrupt", err)
	}
}

// TestCLIDecompressCorruptSeries pins that decompress and verify do not
// stack a series' steps into one tall field, and that info names the
// archive a series.
func TestCLIDecompressCorruptSeries(t *testing.T) {
	dir := t.TempDir()
	for s := 0; s < 3; s++ {
		if err := cmdGen([]string{"-data", "ocean", "-dims", "64x48",
			"-out", filepath.Join(dir, fmt.Sprintf("frame%03d.f32", s))}); err != nil {
			t.Fatal(err)
		}
	}
	arch := filepath.Join(dir, "series.scar")
	if err := cmdPackSeries([]string{"-in", filepath.Join(dir, "frame%03d.f32"),
		"-steps", "3", "-dims", "64x48", "-out", arch}); err != nil {
		t.Fatal(err)
	}
	if err := cmdDecompress([]string{"-in", arch, "-out", filepath.Join(dir, "back.f32")}); !errors.Is(err, archive.ErrCorrupt) {
		t.Fatalf("decompress of a series: err = %v, want archive.ErrCorrupt", err)
	}
	if err := cmdVerify([]string{"-orig", filepath.Join(dir, "frame000.f32"), "-comp", arch}); !errors.Is(err, archive.ErrCorrupt) {
		t.Fatalf("verify of a series: err = %v, want archive.ErrCorrupt", err)
	}
	out, err := captureStdout(t, func() error { return cmdInfo([]string{"-in", arch}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "series: 3 steps, 2D field 64x48,") {
		t.Fatalf("info printed %q, want a series line", out)
	}
}
