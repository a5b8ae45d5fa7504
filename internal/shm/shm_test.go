package shm

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/cp"
	"repro/internal/datagen"
	"repro/internal/field"
	"repro/internal/fixed"
	"repro/internal/safedim"
)

// budgetFor returns the MaxMemBytes under which a run over a field of
// dims in slabs slabs admits window slabs at once, each raw byte of its
// largest slab costing overhead bytes; a window <= 0 is no budget, every
// slab at once.
func budgetFor(dims []int, slabs, window int, overhead int64) int64 {
	if window <= 0 {
		return 0
	}
	nd := len(dims)
	maxPlanes := (dims[nd-1] + slabs - 1) / slabs
	slabBytes := int64(maxPlanes) * int64(safedim.MustProduct(dims[:nd-1]...)) * int64(nd) * 4
	return int64(window) * overhead * slabBytes
}

// TestShmDeterministic is the pipeline's core guarantee: the output
// container is a function of (field, transform, options, slab count)
// only — the worker count and the window change wall time and peak
// memory, never bytes, although a slab's phase 2 waits on its
// successor's phase 1 and runs on whichever worker finishes second.
func TestShmDeterministic(t *testing.T) {
	check := func(t *testing.T, src *field.Mem, tr fixed.Transform, opts core.Options, slabs int, workers []int) {
		var ref []byte
		for _, w := range workers {
			for _, window := range []int{0, 1, 2, 3} {
				budget := budgetFor(src.Dims(), slabs, window, compressSlabOverhead)
				res, err := Compress(src, tr, opts, Options{Workers: w, Slabs: slabs, MaxMemBytes: budget})
				if err != nil {
					t.Fatalf("workers=%d window=%d: %v", w, window, err)
				}
				if want := max(window, 2); window > 0 && res.Window != want {
					t.Fatalf("workers=%d window=%d: Result.Window = %d, want %d", w, window, res.Window, want)
				}
				if ref == nil {
					ref = res.Blob
					continue
				}
				if !bytes.Equal(res.Blob, ref) {
					t.Fatalf("workers=%d window=%d output differs from workers=%d unbounded (%d vs %d bytes)",
						w, window, workers[0], len(res.Blob), len(ref))
				}
			}
		}
	}
	t.Run("2d", func(t *testing.T) {
		f := datagen.Ocean(96, 72)
		tr, err := fixed.Fit(f.U, f.V)
		if err != nil {
			t.Fatal(err)
		}
		check(t, field.Mem2D(f), tr, core.Options{Tau: 0.01, Spec: core.ST2}, 6, []int{1, 2, 4, 8})
	})
	t.Run("3d", func(t *testing.T) {
		f := datagen.Nek5000(20, 20, 24)
		tr, err := fixed.Fit(f.U, f.V, f.W)
		if err != nil {
			t.Fatal(err)
		}
		check(t, field.Mem3D(f), tr, core.Options{Tau: 0.01}, 5, []int{1, 3, 8})
	})
}

func TestShmRoundTrip2D(t *testing.T) {
	f := datagen.Ocean(80, 64)
	tr, err := fixed.Fit(f.U, f.V)
	if err != nil {
		t.Fatal(err)
	}
	const tau = 0.02
	opts := core.Options{Tau: tau, Spec: core.ST2}
	res, err := Compress(field.Mem2D(f), tr, opts, Options{Workers: 4, Slabs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if sr, err := archive.OpenStream(bytes.NewReader(res.Blob), int64(len(res.Blob))); err != nil || sr.Version() != 3 {
		t.Fatalf("shm output is not a version-3 container: %v", err)
	}
	g, err := decode2D(res.Blob, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.NX != f.NX || g.NY != f.NY {
		t.Fatalf("dims %dx%d, want %dx%d", g.NX, g.NY, f.NX, f.NY)
	}
	// Interior vertices follow the pipeline's relaxed-bound contract, but
	// the detection result must be preserved exactly.
	orig := cp.DetectField2D(f, tr)
	rep := cp.Compare(orig, cp.DetectField2D(g, tr))
	if !rep.Preserved() {
		t.Fatalf("critical points not preserved: %+v", rep)
	}
	// Two-phase seams store no border losslessly: eight slabs of 640
	// vertices, which pay for eight code tables, keep most of the
	// one-block ratio.
	whole, err := Compress(field.Mem2D(f), tr, opts, Options{Slabs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Lossless > whole.Stats.Lossless || res.Ratio() < 0.75*whole.Ratio() {
		t.Errorf("8 slabs: ratio %.2f, %d lossless vertices; one slab: %.2f, %d",
			res.Ratio(), res.Stats.Lossless, whole.Ratio(), whole.Stats.Lossless)
	}
}

func TestShmRoundTrip3D(t *testing.T) {
	f := datagen.Hurricane(24, 24, 20)
	tr, err := fixed.Fit(f.U, f.V, f.W)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Tau: 0.02}
	res, err := Compress(field.Mem3D(f), tr, opts, Options{Workers: 3, Slabs: 5})
	if err != nil {
		t.Fatal(err)
	}
	g, err := decode3D(res.Blob, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.NX != f.NX || g.NY != f.NY || g.NZ != f.NZ {
		t.Fatalf("dims %dx%dx%d, want %dx%dx%d", g.NX, g.NY, g.NZ, f.NX, f.NY, f.NZ)
	}
	orig := cp.DetectField3D(f, tr)
	rep := cp.Compare(orig, cp.DetectField3D(g, tr))
	if !rep.Preserved() {
		t.Fatalf("critical points not preserved: %+v", rep)
	}
}

// TestShmSingleSlab pins the degenerate decomposition: one slab has no
// lossless borders, so its block stream is exactly the single-node
// compressor's output wrapped in the container.
func TestShmSingleSlab(t *testing.T) {
	f := datagen.Ocean(48, 40)
	tr, err := fixed.Fit(f.U, f.V)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Tau: 0.01}
	res, err := Compress(field.Mem2D(f), tr, opts, Options{Slabs: 1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers != 1 {
		t.Fatalf("Workers = %d, want 1: one slab runs on one worker", res.Workers)
	}
	sr, err := archive.OpenStream(bytes.NewReader(res.Blob), int64(len(res.Blob)))
	if err != nil {
		t.Fatal(err)
	}
	if sr.Steps() != 1 {
		t.Fatalf("steps = %d, want 1", sr.Steps())
	}
	single, err := core.CompressField2D(f, tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := sr.ReadBlobInto(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, single) {
		t.Fatal("single-slab block differs from the single-node compressor output")
	}
}

// TestDecompressBareBlock pins that the container decoder reads a bare
// core block as a one-slab container, with the block decoder's floats.
func TestDecompressBareBlock(t *testing.T) {
	f2 := datagen.Ocean(48, 40)
	blob, _, err := core.Compress(f2.Dims(), f2.Components(), core.Options{Tau: 0.05, Spec: core.ST2})
	if err != nil {
		t.Fatal(err)
	}
	want2, err := core.Decompress2D(blob)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := decode2D(blob, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !floatsEqual(got2.U, want2.U) || !floatsEqual(got2.V, want2.V) {
		t.Fatal("2D bare block decodes differently through the container path")
	}
	if _, err := decode3D(blob, 2); err == nil {
		t.Error("2D block decoded as 3D")
	}
	g := field.NewField2D(f2.NX, f2.NY)
	if err := Decompress(blob, 2, field.Mem2D(g)); err != nil || !floatsEqual(g.U, want2.U) || !floatsEqual(g.V, want2.V) {
		t.Errorf("Decompress into a matching field: err %v or values differ", err)
	}
	if err := Decompress(blob, 2, field.Mem2D(field.NewField2D(f2.NY, f2.NX))); err == nil {
		t.Error("Decompress into a transposed field must fail")
	}
	if err := Decompress(blob, 2, field.Mem3D(field.NewField3D(f2.NX, f2.NY, 2))); err == nil {
		t.Error("Decompress of a 2D block into a 3D field must fail")
	}

	f3 := datagen.Hurricane(12, 12, 10)
	blob, _, err = core.Compress(f3.Dims(), f3.Components(), core.Options{Tau: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	want3, err := core.Decompress3D(blob)
	if err != nil {
		t.Fatal(err)
	}
	got3, err := decode3D(blob, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !floatsEqual(got3.U, want3.U) || !floatsEqual(got3.V, want3.V) || !floatsEqual(got3.W, want3.W) {
		t.Fatal("3D bare block decodes differently through the container path")
	}
}

// TestStreamCompressRejectsBadOptions pins up-front validation: options
// every slab encode would reject fail the run with an error and write
// nothing, instead of degrading every slab to lossless storage. A
// non-positive τ and an extent below two points are *fixed.DomainErrors
// naming the parameter.
func TestStreamCompressRejectsBadOptions(t *testing.T) {
	f2 := datagen.Ocean(32, 24)
	f3 := datagen.Hurricane(8, 8, 8)
	tr2, _ := fixed.Fit(f2.U, f2.V)
	tr3, _ := fixed.Fit(f3.U, f3.V, f3.W)
	for _, opts := range []core.Options{
		{Tau: 0},
		{Tau: -1},
		{Tau: -0.5},
		{Tau: 0.01, Spec: core.ST4 + 1},
	} {
		var buf bytes.Buffer
		_, err := CompressStream(field.Mem2D(f2), &buf, tr2, opts, Options{Workers: 2})
		if err == nil || buf.Len() != 0 {
			t.Errorf("2D %+v: err %v, %d bytes written", opts, err, buf.Len())
		}
		var de *fixed.DomainError
		if opts.Tau <= 0 && (!errors.As(err, &de) || de.Param != "tau" || de.Value != opts.Tau) {
			t.Errorf("2D tau=%v: err = %v, want *fixed.DomainError for tau", opts.Tau, err)
		}
		_, err = CompressStream(field.Mem3D(f3), &buf, tr3, opts, Options{Workers: 2})
		if err == nil || buf.Len() != 0 {
			t.Errorf("3D %+v: err %v, %d bytes written", opts, err, buf.Len())
		}
		if opts.Tau <= 0 && (!errors.As(err, &de) || de.Param != "tau") {
			t.Errorf("3D tau=%v: err = %v, want *fixed.DomainError for tau", opts.Tau, err)
		}
	}
	for _, tc := range []struct {
		name  string
		src   *field.Mem
		param string
	}{
		{"1x8", field.Mem2D(field.NewField2D(1, 8)), "nx"},
		{"4x4x1", field.Mem3D(field.NewField3D(4, 4, 1)), "nz"},
	} {
		var buf bytes.Buffer
		_, err := CompressStream(tc.src, &buf, fixed.FromShift(10), core.Options{Tau: 0.01}, Options{Workers: 2})
		var de *fixed.DomainError
		if !errors.As(err, &de) || de.Param != tc.param || de.Value != 1 {
			t.Errorf("%s: err = %v, want *fixed.DomainError for %s = 1", tc.name, err, tc.param)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: %d bytes written", tc.name, buf.Len())
		}
	}
}

func TestShmSlabValidation(t *testing.T) {
	f := datagen.Ocean(16, 8)
	tr, err := fixed.Fit(f.U, f.V)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compress(field.Mem2D(f), tr, core.Options{Tau: 0.01}, Options{Slabs: 5}); err == nil {
		t.Fatal("expected error: 8 planes cannot form 5 slabs of >=2")
	}
}

// TestDefaultSlabs pins the shape rule: one slab per minSlabVertices
// vertices, clamped to [1, 16] and to half the slow axis. A small body,
// such as a daemon request, is one whole-domain slab.
func TestDefaultSlabs(t *testing.T) {
	const m = minSlabVertices
	for _, c := range []struct {
		dims []int
		want int
	}{
		{[]int{128, 128}, 1},
		{[]int{256, 256}, 1},
		{[]int{768, 576}, 6},
		{[]int{64, 64, 96}, 6},
		{[]int{48, 48, 48}, 1},
		{[]int{m / 4, 4}, 1},
		{[]int{1024, 3 * m / 1024}, 3},
		{[]int{64, 64, 100 * m / 4096}, 16},
		{[]int{m, 8}, 4}, // two planes per slab at most
		{[]int{m, 2}, 1},
	} {
		if got := DefaultSlabs(c.dims); got != c.want {
			t.Errorf("DefaultSlabs(%v) = %d, want %d", c.dims, got, c.want)
		}
	}
}

// decode2D and decode3D decode an in-memory container, sizing the field
// from the dims its blob headers store.
func decode2D(data []byte, workers int) (*field.Field2D, error) {
	var f *field.Field2D
	_, err := DecompressTo(bytes.NewReader(data), int64(len(data)), Options{Workers: workers},
		func(dims []int) (PlaneSink, error) {
			if len(dims) != 2 {
				return nil, fmt.Errorf("container holds %v, want 2D", dims)
			}
			f = field.NewField2D(dims[0], dims[1])
			return field.Mem2D(f), nil
		})
	if err != nil {
		return nil, err
	}
	return f, nil
}

func decode3D(data []byte, workers int) (*field.Field3D, error) {
	var f *field.Field3D
	_, err := DecompressTo(bytes.NewReader(data), int64(len(data)), Options{Workers: workers},
		func(dims []int) (PlaneSink, error) {
			if len(dims) != 3 {
				return nil, fmt.Errorf("container holds %v, want 3D", dims)
			}
			f = field.NewField3D(dims[0], dims[1], dims[2])
			return field.Mem3D(f), nil
		})
	if err != nil {
		return nil, err
	}
	return f, nil
}
