package core_test

import (
	"bytes"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/faultinject"
	"repro/internal/field"
	"repro/internal/fixed"
	"repro/internal/flightrec"
	"repro/internal/shm"
	"repro/internal/telemetry"
)

// wavefrontField returns a 2D Ocean or 3D turbulence field of the given
// dims with sparse spikes, which force lossless vertices and literal
// escapes, and a previous frame for temporal prediction.
func wavefrontField(dims []int) (comps, prev [][]float32) {
	if len(dims) == 2 {
		f := datagen.Ocean(dims[0], dims[1])
		comps = f.Components()
	} else {
		f := datagen.Turbulence(dims[0], dims[1], dims[2], 5)
		comps = f.Components()
	}
	for c, z := range comps {
		lo, hi := slices.Min(z), slices.Max(z)
		p := make([]float32, len(z))
		for i := range z {
			p[i] = z[i] - 0.003*(hi-lo)*float32((i*7+c)%5-2)
			if i%97 == 13+c {
				z[i] += 0.4 * (hi - lo)
			}
		}
		prev = append(prev, p)
	}
	return comps, prev
}

// compressAt compresses b with GOMAXPROCS set to procs and returns the
// blob, the Stats and the core telemetry: every counter except the
// derive_ns timings, and every histogram.
func compressAt(t *testing.T, procs int, b core.Block) ([]byte, core.Stats, map[string]int64, map[string]telemetry.HistSnapshot) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	col := telemetry.New()
	b.Opts.Tel = col
	blob, st, err := core.CompressBlock(b)
	if err != nil {
		t.Fatal(err)
	}
	snap := col.Snapshot()
	maps.DeleteFunc(snap.Counters, func(name string, _ int64) bool { return strings.HasSuffix(name, ".derive_ns") })
	return blob, st, snap.Counters, snap.Histograms
}

// TestWavefrontMatchesSequential compresses whole-domain blocks whose
// slices reach the fan-out length under GOMAXPROCS 1 (one goroutine: the
// raster sweep), 2 and 4, at every speculation level with spatial and
// temporal prediction, plus the edge shapes: two slices (ny = 2,
// nz = 2), a fast axis shorter than the slice lag (3D), and slices one
// vertex below and at the fan-out length. Bytes,
// Stats and the core telemetry totals must not depend on the goroutine
// count.
func TestWavefrontMatchesSequential(t *testing.T) {
	type tc struct {
		dims     []int
		spec     core.Speculation
		temporal bool
	}
	var cases []tc
	specs := []core.Speculation{core.NoSpec, core.ST1, core.ST2, core.ST3, core.ST4}
	for _, dims := range [][]int{{200, 24}, {17, 16, 16}} {
		for _, spec := range specs {
			for _, temporal := range []bool{false, true} {
				cases = append(cases, tc{dims, spec, temporal})
			}
		}
	}
	for _, dims := range [][]int{
		{2100, 2},    // two rows
		{48, 48, 2},  // two planes
		{191, 30},    // rows one vertex short of the fan-out length
		{192, 30},    // rows at it
		{10, 19, 30}, // planes of 190 vertices, below it
		{12, 16, 20}, // planes at it, a fast axis shorter than the lag
	} {
		for _, spec := range []core.Speculation{core.NoSpec, core.ST1, core.ST4} {
			cases = append(cases, tc{dims, spec, false})
		}
	}
	literals, fails := 0, 0
	for _, c := range cases {
		name := fmt.Sprintf("%v %v temporal=%v", c.dims, c.spec, c.temporal)
		comps, prev := wavefrontField(c.dims)
		tr, err := fixed.Fit(comps...)
		if err != nil {
			t.Fatal(err)
		}
		b := core.Block{Dims: c.dims, Comps: comps, Transform: tr, Opts: core.Options{Tau: 0.01, Spec: c.spec}}
		if c.temporal {
			b.Prev = prev
		}
		want, wantSt, wantCtr, wantHist := compressAt(t, 1, b)
		literals += wantSt.Literals
		fails += wantSt.SpecFails
		for _, procs := range []int{2, 4} {
			got, st, ctr, hist := compressAt(t, procs, b)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: GOMAXPROCS %d: blob differs from the one-goroutine sweep", name, procs)
			}
			if st != wantSt {
				t.Fatalf("%s: GOMAXPROCS %d: Stats %+v, one goroutine %+v", name, procs, st, wantSt)
			}
			if !maps.Equal(ctr, wantCtr) {
				t.Fatalf("%s: GOMAXPROCS %d: counters %v, one goroutine %v", name, procs, ctr, wantCtr)
			}
			if !maps.EqualFunc(hist, wantHist, func(a, b telemetry.HistSnapshot) bool {
				return fmt.Sprint(a) == fmt.Sprint(b)
			}) {
				t.Fatalf("%s: GOMAXPROCS %d: histograms %v, one goroutine %v", name, procs, hist, wantHist)
			}
		}
	}
	if literals == 0 || fails == 0 {
		t.Fatalf("%d literal escapes, %d speculation failures: the cases missed the escape or rollback path", literals, fails)
	}
}

// TestWavefrontOneSlabShmMatchesCompressBlock: the one blob of a
// one-slab shm container — the CLI's default run — equals CompressBlock
// of the whole field, on every core.
func TestWavefrontOneSlabShmMatchesCompressBlock(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, dims := range [][]int{{200, 40}, {20, 18, 16}} {
		comps, _ := wavefrontField(dims)
		tr, err := fixed.Fit(comps...)
		if err != nil {
			t.Fatal(err)
		}
		opts := core.Options{Tau: 0.01, Spec: core.ST2}
		want, _, err := core.CompressBlock(core.Block{Dims: dims, Comps: comps, Transform: tr, Opts: opts})
		if err != nil {
			t.Fatal(err)
		}
		res, err := shm.Compress(field.MemOf(dims, comps), tr, opts, shm.Options{Slabs: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got := slabBlob(t, res.Blob, 0); !bytes.Equal(got, want) {
			t.Fatalf("%v: the one-slab container's blob differs from CompressBlock", dims)
		}
	}
}

func slabBlob(t *testing.T, container []byte, i int) []byte {
	t.Helper()
	sr, err := archive.OpenStream(bytes.NewReader(container), int64(len(container)))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := sr.ReadBlobInto(nil, i)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// helperPanic is the value the slice hook panics with on a helper
// goroutine.
const helperPanic = "injected helper-goroutine panic"

// panicOnHelper installs a slice hook that panics on a helper
// goroutine once the caller's worker has taken a slice above the
// helper's, so that the caller then waits on the helper's slice and only
// the panic can release it. The caller's worker holds its second slice
// until a helper has taken one, however late the helper starts.
func panicOnHelper(t *testing.T) (restore func()) {
	t.Helper()
	var callerSlice atomic.Int64
	var helperStarted atomic.Bool
	callerSlice.Store(-1)
	return core.SetSliceHook(func(worker, slice int) {
		if worker == 0 {
			callerSlice.Store(int64(slice))
			for slice > 0 && !helperStarted.Load() {
				runtime.Gosched()
			}
			return
		}
		helperStarted.Store(true)
		for callerSlice.Load() <= int64(slice) {
			runtime.Gosched()
		}
		panic(helperPanic)
	})
}

// TestWavefrontHelperPanic: a panic on a helper goroutine releases the
// slices waiting on it, comes back to the caller as the same value after
// the join, and leaves the pooled scratch fit for the next compress.
func TestWavefrontHelperPanic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, dims := range [][]int{{200, 30}, {17, 16, 16}} {
		comps, _ := wavefrontField(dims)
		tr, err := fixed.Fit(comps...)
		if err != nil {
			t.Fatal(err)
		}
		b := core.Block{Dims: dims, Comps: comps, Transform: tr, Opts: core.Options{Tau: 0.01, Spec: core.ST4}}
		want, _, err := core.CompressBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		got := func() (r any) {
			defer func() { r = recover() }()
			defer panicOnHelper(t)()
			core.CompressBlock(b)
			return nil
		}()
		if got != helperPanic {
			t.Fatalf("%v: recovered %v on the caller, want the helper's panic", dims, got)
		}
		again, _, err := core.CompressBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, want) {
			t.Fatalf("%v: the compress after a helper panic differs", dims)
		}
	}
}

// TestWavefrontHelperPanicDegradesShmSlab: in a one-slab shm run, a
// panic on one of the slab's helper goroutines degrades the slab exactly
// as a panic on the slab's own goroutine does — same container, same
// report, same flight-recorder events.
func TestWavefrontHelperPanicDegradesShmSlab(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	comps, _ := wavefrontField([]int{200, 36})
	tr, err := fixed.Fit(comps...)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Tau: 0.01}
	run := func(inj *faultinject.Injector) (shm.Result, []flightrec.Event) {
		rec := flightrec.New(64)
		res, err := shm.Compress(field.MemOf([]int{200, 36}, comps), tr, opts,
			shm.Options{Slabs: 1, Rec: rec, Faults: inj})
		if err != nil {
			t.Fatal(err)
		}
		return res, rec.Snapshot()
	}
	callerRes, callerEv := run(faultinject.New(faultinject.Config{
		Seed: 1, Prob: [faultinject.NumKinds]float64{faultinject.KindPanic: 1}}))
	restore := panicOnHelper(t)
	helperRes, helperEv := run(nil)
	restore()
	if !slices.Equal(helperRes.Degraded, []int{0}) || helperRes.Panics != 1 {
		t.Fatalf("helper panic: %s, want slab 0 degraded after one panic", helperRes.DegradationReport())
	}
	if !bytes.Equal(helperRes.Blob, callerRes.Blob) {
		t.Fatal("helper panic: container differs from the caller-goroutine panic's")
	}
	if helperRes.DegradationReport() != callerRes.DegradationReport() {
		t.Fatalf("helper panic reports %q, caller-goroutine panic %q",
			helperRes.DegradationReport(), callerRes.DegradationReport())
	}
	kinds := func(evs []flightrec.Event) (out []string) {
		for _, ev := range evs {
			out = append(out, fmt.Sprintf("%v/%s/slab %d", ev.Kind, ev.Subsystem, ev.Slab))
		}
		return out
	}
	if h, c := kinds(helperEv), kinds(callerEv); !slices.Equal(h, c) {
		t.Fatalf("helper panic records %v, caller-goroutine panic %v", h, c)
	}
}

// TestFinishRejectsIncompleteSweep: Finish before Run, or after the
// first phase of a two-phase block alone, is an error — the positional
// streams would otherwise pack unvisited slots as zero codes. So is a
// second Run or phase: its vertices' stream positions are already taken.
func TestFinishRejectsIncompleteSweep(t *testing.T) {
	f := datagen.Ocean(24, 16)
	tr, err := fixed.Fit(f.U, f.V)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := core.NewEncoder(core.Block{Dims: f.Dims(), Comps: f.Components(), Transform: tr,
		Opts: core.Options{Tau: 0.01}})
	if err != nil {
		t.Fatal(err)
	}
	defer enc.Close()
	if _, err := enc.Finish(); err == nil {
		t.Fatal("Finish without Run succeeded")
	}
	enc.Run()
	if _, err := enc.Finish(); err != nil {
		t.Fatalf("Finish after Run: %v", err)
	}

	b := core.Block{Dims: f.Dims(), Comps: f.Components(), Transform: tr, Opts: core.Options{Tau: 0.01},
		Origin: []int{0, 0}, Global: []int{24, 32}, TwoPhase: true}
	b.Neighbor[core.SideMaxY] = true
	two, err := core.NewEncoder(b)
	if err != nil {
		t.Fatal(err)
	}
	defer two.Close()
	two.RunPhase1()
	if _, err := two.Finish(); err == nil {
		t.Fatal("Finish after RunPhase1 alone succeeded")
	}
	two.RunPhase2()
	if _, err := two.Finish(); err != nil {
		t.Fatalf("Finish after both phases: %v", err)
	}

	// A second sweep, on one goroutine and fanned out, on a plain block
	// and on each phase of a two-phase block.
	big := datagen.Ocean(200, 32)
	btr, err := fixed.Fit(big.U, big.V)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2} {
		for _, tc := range []struct {
			name string
			blk  core.Block
			runs func(*core.Encoder)
		}{
			{"Run twice", core.Block{Dims: big.Dims(), Comps: big.Components(), Transform: btr,
				Opts: core.Options{Tau: 0.01}}, func(e *core.Encoder) { e.Run(); e.Run() }},
			{"RunPhase1 twice", b, func(e *core.Encoder) { e.RunPhase1(); e.RunPhase1(); e.RunPhase2() }},
			{"RunPhase2 twice", b, func(e *core.Encoder) { e.RunPhase1(); e.RunPhase2(); e.RunPhase2() }},
			{"Run after RunPhase1", b, func(e *core.Encoder) { e.RunPhase1(); e.Run() }},
		} {
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				enc, err := core.NewEncoder(tc.blk)
				if err != nil {
					t.Fatal(err)
				}
				defer enc.Close()
				tc.runs(enc)
				if _, err := enc.Finish(); err == nil {
					t.Fatalf("GOMAXPROCS %d: Finish after %s succeeded", procs, tc.name)
				}
			}()
		}
	}
}
