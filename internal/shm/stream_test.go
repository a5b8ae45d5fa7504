package shm

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/faultinject"
	"repro/internal/field"
	"repro/internal/fixed"
)

// TestStreamWindowDeterministic pins the out-of-core guarantee: bounding
// the admission window changes peak memory, never bytes. Every
// (window, workers) pair must reproduce the unbounded container exactly.
// A window of one runs as two: a slab waits at its seam for its
// successor.
func TestStreamWindowDeterministic(t *testing.T) {
	f := datagen.Ocean(96, 72)
	tr, err := fixed.Fit(f.U, f.V)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Tau: 0.01, Spec: core.ST2}
	ref, err := Compress(field.Mem2D(f), tr, opts, Options{Workers: 1, Slabs: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, window := range []int{1, 2, 3, 8} {
		for _, workers := range []int{1, 4, 8} {
			var buf bytes.Buffer
			res, err := CompressStream(field.Mem2D(f), &buf, tr, opts,
				Options{Workers: workers, Slabs: 8, MaxMemBytes: budgetFor(f.Dims(), 8, window, compressSlabOverhead)})
			if err != nil {
				t.Fatalf("window=%d workers=%d: %v", window, workers, err)
			}
			if !bytes.Equal(buf.Bytes(), ref.Blob) {
				t.Fatalf("window=%d workers=%d output differs from unbounded run", window, workers)
			}
			if want := max(window, 2); res.Window != want {
				t.Errorf("window=%d: Result.Window = %d, want %d", window, res.Window, want)
			}
			if res.PeakWindowBytes <= 0 {
				t.Errorf("window=%d: PeakWindowBytes = %d, want > 0", window, res.PeakWindowBytes)
			}
		}
	}
}

// TestStreamMatchesInMemory pins that the stream API and the buffered
// wrappers are the same encoder: CompressStream writes the bytes
// Compress returns.
func TestStreamMatchesInMemory(t *testing.T) {
	f := datagen.Nek5000(20, 20, 24)
	tr, err := fixed.Fit(f.U, f.V, f.W)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Tau: 0.01}
	res, err := Compress(field.Mem3D(f), tr, opts, Options{Workers: 2, Slabs: 5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := CompressStream(field.Mem3D(f), &buf, tr, opts, Options{Workers: 4, Slabs: 5}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), res.Blob) {
		t.Fatal("CompressStream bytes differ from Compress (3D)")
	}
}

// TestDecompressTo pins the streaming decoder against the in-memory one:
// same container, same floats, for 2D and 3D, windowed and not.
func TestDecompressTo(t *testing.T) {
	t.Run("2d", func(t *testing.T) {
		f := datagen.Ocean(80, 64)
		tr, err := fixed.Fit(f.U, f.V)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Compress(field.Mem2D(f), tr, core.Options{Tau: 0.02, Spec: core.ST2}, Options{Slabs: 6})
		if err != nil {
			t.Fatal(err)
		}
		want, err := decode2D(res.Blob, 2)
		if err != nil {
			t.Fatal(err)
		}
		got := field.NewField2D(f.NX, f.NY)
		dims, err := DecompressTo(bytes.NewReader(res.Blob), int64(len(res.Blob)),
			Options{Workers: 4, MaxMemBytes: budgetFor(f.Dims(), 6, 2, decompressSlabOverhead)},
			func([]int) (PlaneSink, error) { return field.Mem2D(got), nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(dims) != 2 || dims[0] != f.NX || dims[1] != f.NY {
			t.Fatalf("dims %v, want [%d %d]", dims, f.NX, f.NY)
		}
		if !floatsEqual(got.U, want.U) || !floatsEqual(got.V, want.V) {
			t.Fatal("windowed DecompressTo planes differ from Decompress2D")
		}
	})
	t.Run("3d", func(t *testing.T) {
		f := datagen.Hurricane(24, 24, 20)
		tr, err := fixed.Fit(f.U, f.V, f.W)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Compress(field.Mem3D(f), tr, core.Options{Tau: 0.02}, Options{Slabs: 4})
		if err != nil {
			t.Fatal(err)
		}
		want, err := decode3D(res.Blob, 0)
		if err != nil {
			t.Fatal(err)
		}
		got := field.NewField3D(f.NX, f.NY, f.NZ)
		dims, err := DecompressTo(bytes.NewReader(res.Blob), int64(len(res.Blob)),
			Options{Workers: 3, MaxMemBytes: 1 << 20},
			func([]int) (PlaneSink, error) { return field.Mem3D(got), nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(dims) != 3 || dims[0] != f.NX || dims[1] != f.NY || dims[2] != f.NZ {
			t.Fatalf("dims %v, want [%d %d %d]", dims, f.NX, f.NY, f.NZ)
		}
		if !floatsEqual(got.U, want.U) || !floatsEqual(got.V, want.V) || !floatsEqual(got.W, want.W) {
			t.Fatal("budgeted DecompressTo planes differ from Decompress3D")
		}
	})
}

// TestDecompressToRejectsOversizedHeader pins the plan's size bound: a
// blob whose peeked header claims more points than its bytes can encode
// fails as corrupt before the sink is sized. A prefix of a constant
// field's block keeps the genuine header but drops the payload.
func TestDecompressToRejectsOversizedHeader(t *testing.T) {
	f := field.NewField2D(1024, 1024)
	for i := range f.U {
		f.U[i] = 1
	}
	blob, _, err := core.Compress(f.Dims(), f.Components(), core.Options{Tau: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decode2D(blob, 2); err != nil {
		t.Fatalf("whole block (%d bytes) must decode: %v", len(blob), err)
	}
	cut := blob[:120]
	_, err = DecompressTo(bytes.NewReader(cut), int64(len(cut)), Options{},
		func([]int) (PlaneSink, error) {
			t.Error("sink sized from an oversized header")
			return nil, errors.New("unreachable")
		})
	if !errors.Is(err, archive.ErrCorrupt) {
		t.Fatalf("got %v, want archive.ErrCorrupt", err)
	}
}

// seriesContainer packs three 64×48 frames, each compressed whole with
// core.Compress, into one container: a time series, as topozip
// pack-series writes it.
func seriesContainer(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw := archive.NewStreamWriter(&buf)
	for s := 0; s < 3; s++ {
		f := datagen.Ocean(64, 48)
		blob, _, err := core.Compress(f.Dims(), f.Components(), core.Options{Tau: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sw.AppendBlob(blob); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecompressCorruptSeries pins that a time series is not decoded as
// the slabs of one tall field: its steps are whole-field blocks, so the
// plan rejects the container as corrupt before sizing a sink. A
// one-step container still decodes as a bare field.
func TestDecompressCorruptSeries(t *testing.T) {
	data := seriesContainer(t)
	if _, err := decode2D(data, 2); !errors.Is(err, ErrNotSlabs) || !errors.Is(err, archive.ErrCorrupt) {
		t.Fatalf("series decoded as slabs: err = %v, want ErrNotSlabs wrapping archive.ErrCorrupt", err)
	}
	sr, err := archive.OpenStream(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if dims, err := ContainerDims(sr); !errors.Is(err, ErrNotSlabs) {
		t.Fatalf("ContainerDims = %v, %v; want ErrNotSlabs", dims, err)
	}
	blob, err := sr.ReadBlobInto(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sw := archive.NewStreamWriter(&buf)
	if _, err := sw.AppendBlob(blob); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if g, err := decode2D(buf.Bytes(), 2); err != nil || g.NX != 64 || g.NY != 48 {
		t.Fatalf("one-step container: %v", err)
	}
}

// TestSlabFlagTellsSlabsFromSteps: every blob of a container of two or
// more slabs carries the slab flag, lossy or degraded, so a fully
// degraded two-slab container — whose blobs are whole-field lossless
// blocks, like a series of τ′ = 0 steps — is refused as a series; and a
// series of τ′ = 0 steps, which carries no flag, still decodes as one
// and is refused as slabs.
func TestSlabFlagTellsSlabsFromSteps(t *testing.T) {
	f := datagen.Ocean(64, 48)
	tr, err := fixed.Fit(f.U, f.V)
	if err != nil {
		t.Fatal(err)
	}
	all := faultinject.New(faultinject.Config{Seed: 1, Prob: [faultinject.NumKinds]float64{faultinject.KindPanic: 1}})
	for _, tc := range []struct {
		name   string
		faults *faultinject.Injector
	}{{"lossy", nil}, {"degraded", all}} {
		res, err := Compress(field.Mem2D(f), tr, core.Options{Tau: 0.01, Spec: core.ST2}, Options{Slabs: 2, Faults: tc.faults})
		if err != nil {
			t.Fatal(err)
		}
		if tc.faults != nil && len(res.Degraded) != 2 {
			t.Fatalf("%s: degraded %v, want both slabs", tc.name, res.Degraded)
		}
		sr, err := archive.OpenStream(bytes.NewReader(res.Blob), int64(len(res.Blob)))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < sr.Steps(); i++ {
			blob, err := sr.ReadBlobInto(nil, i)
			if err != nil {
				t.Fatal(err)
			}
			if h, err := core.PeekBlock(blob); err != nil || !h.Slab || h.Lossless != (tc.faults != nil) {
				t.Fatalf("%s: slab %d header %+v, %v: want the slab flag", tc.name, i, h, err)
			}
		}
		if _, _, err := archive.DecodeSeries(sr); !errors.Is(err, archive.ErrCorrupt) {
			t.Fatalf("%s: a two-slab container decoded as a series: err = %v, want archive.ErrCorrupt", tc.name, err)
		}
		if _, err := decode2D(res.Blob, 2); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}

	var buf bytes.Buffer
	sw := archive.NewStreamWriter(&buf)
	for s := 0; s < 2; s++ {
		blob, err := core.CompressLossless(core.Block{Dims: f.Dims(), Comps: f.Components(), Transform: tr})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sw.AppendBlob(blob); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	sr, err := archive.OpenStream(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if dims, steps, err := archive.DecodeSeries(sr); err != nil || len(steps) != 2 || dims[1] != 48 {
		t.Fatalf("a series of lossless steps: %v, %d steps, %v", dims, len(steps), err)
	}
	if dims, err := ContainerDims(sr); !errors.Is(err, ErrNotSlabs) {
		t.Fatalf("a series of lossless steps planned as slabs: %v, %v; want ErrNotSlabs", dims, err)
	}
}

func floatsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBudgetSizing pins the -max-mem translation layer: slab counts
// shrink per-slab memory to fit, windows honor the overhead model, and
// explicit knobs always win over the derived values.
func TestBudgetSizing(t *testing.T) {
	t.Run("slabs", func(t *testing.T) {
		// 288 KiB budget, 4 KiB planes: a window of three slabs at the
		// compress overhead leaves 288Ki/18 = 16 KiB per slab → 4 planes
		// per slab → ceil(256/4) = 64 slabs.
		if got := budgetSlabs(288<<10, 4096, 256); got != 64 {
			t.Errorf("budgetSlabs(288Ki, 4Ki, 256) = %d, want 64", got)
		}
		// The budget alone sets the count: one that holds the field is
		// one whole-domain slab, with no parallelism floor.
		if got := budgetSlabs(1<<40, 4096, 256); got != 1 {
			t.Errorf("huge budget: %d slabs, want 1", got)
		}
		// A tiny budget is capped at nSlow/2 — slabs need two planes.
		if got := budgetSlabs(1, 1<<20, 64); got != 32 {
			t.Errorf("tiny budget: %d slabs, want 32", got)
		}
	})
	t.Run("window", func(t *testing.T) {
		if got := budgetWindow(12<<20, 1<<20, 16, compressSlabOverhead); got != 2 {
			t.Errorf("budgetWindow(12Mi, 1Mi, 16) = %d, want 2", got)
		}
		// Never below 1 (degrade to serial) or above slabs.
		if got := budgetWindow(1, 1<<20, 16, compressSlabOverhead); got != 1 {
			t.Errorf("starved budget: window %d, want 1", got)
		}
		if got := budgetWindow(1<<40, 1<<20, 16, compressSlabOverhead); got != 16 {
			t.Errorf("huge budget: window %d, want 16", got)
		}
	})
	t.Run("explicit-knobs-win", func(t *testing.T) {
		o := Options{MaxMemBytes: 1 << 20, Slabs: 7}
		if got := o.applyBudget(4096, 256); got.Slabs != 7 {
			t.Errorf("explicit slab count overridden: slabs=%d", got.Slabs)
		}
		if got := o.window(37*1024, 7, compressSlabOverhead); got != 4 {
			t.Errorf("window of 7 slabs of 37 KiB in 1 MiB: %d, want 4", got)
		}
	})
	t.Run("derived-ignores-workers", func(t *testing.T) {
		a := Options{MaxMemBytes: 2 << 20, Workers: 1}.applyBudget(8192, 512)
		b := Options{MaxMemBytes: 2 << 20, Workers: 16}.applyBudget(8192, 512)
		if a.Slabs != b.Slabs {
			t.Errorf("budget sizing depends on Workers: %d vs %d slabs", a.Slabs, b.Slabs)
		}
		if a.Slabs <= 0 {
			t.Errorf("budget left the slab count unset: slabs=%d", a.Slabs)
		}
	})
	t.Run("zero-budget-noop", func(t *testing.T) {
		if o := (Options{}).applyBudget(4096, 256); o.Slabs != 0 {
			t.Errorf("zero budget set the slab count: slabs=%d", o.Slabs)
		}
		if w := (Options{}).window(1<<20, 9, compressSlabOverhead); w != 9 {
			t.Errorf("zero budget: window %d, want every slab (9)", w)
		}
	})
}
