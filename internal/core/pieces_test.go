package core_test

import (
	"bytes"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/cp"
	"repro/internal/datagen"
	"repro/internal/faultinject"
	"repro/internal/field"
	"repro/internal/fixed"
	"repro/internal/flightrec"
	"repro/internal/shm"
	"repro/internal/telemetry"
)

// pieceField returns a 2D Ocean or 3D turbulence field of the given
// dims with sparse spikes, which force lossless vertices and literal
// escapes, and a previous frame for temporal prediction.
func pieceField(dims []int) (comps, prev [][]float32) {
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

// wantPieces is the piece count of a whole-domain block of dims: one
// piece per MinPieceVertices vertices, at most half the slow axis.
func wantPieces(dims []int) int {
	n := 1
	for _, d := range dims {
		n *= d
	}
	return max(1, min(n/core.MinPieceVertices, dims[len(dims)-1]/2))
}

// piecesOf reads the piece count from a block's header.
func piecesOf(t *testing.T, blob []byte) int {
	t.Helper()
	k, err := core.BlockPieces(blob)
	if err != nil {
		t.Fatal(err)
	}
	return k
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

// TestPiecesMatchAcrossCores compresses whole-domain blocks of two
// pieces or more under GOMAXPROCS 1 (every task on the caller's
// goroutine), 2 and 4, at every speculation level with spatial and
// temporal prediction, plus the edge shapes: k at half the slow axis,
// so every piece but an odd last one holds exactly two planes (2D and
// 3D), and pieces of unequal size. Bytes, Stats and the core telemetry
// totals must not depend on the core count; the decoded field keeps
// every critical point (FP = FN = FT = 0), within τ at NoSpec and ST1.
func TestPiecesMatchAcrossCores(t *testing.T) {
	type tc struct {
		dims     []int
		spec     core.Speculation
		temporal bool
	}
	var cases []tc
	specs := []core.Speculation{core.NoSpec, core.ST1, core.ST2, core.ST3, core.ST4}
	for _, dims := range [][]int{{256, 197}, {32, 32, 50}} {
		for _, spec := range specs {
			for _, temporal := range []bool{false, true} {
				cases = append(cases, tc{dims, spec, temporal})
			}
		}
	}
	for _, dims := range [][]int{
		{8192, 8},    // k = 4 = nSlow/2: pieces of two rows
		{8192, 9},    // k = 4 = nSlow/2, the last piece of three rows
		{128, 64, 6}, // k = 3 = nSlow/2: pieces of two planes
	} {
		for _, spec := range []core.Speculation{core.NoSpec, core.ST1, core.ST4} {
			cases = append(cases, tc{dims, spec, false})
		}
	}
	const tau = 0.01
	literals, fails := 0, 0
	for _, c := range cases {
		name := fmt.Sprintf("%v %v temporal=%v", c.dims, c.spec, c.temporal)
		comps, prev := pieceField(c.dims)
		tr, err := fixed.Fit(comps...)
		if err != nil {
			t.Fatal(err)
		}
		b := core.Block{Dims: c.dims, Comps: comps, Transform: tr, Opts: core.Options{Tau: tau, Spec: c.spec}}
		if c.temporal {
			b.Prev = prev
		}
		want, wantSt, wantCtr, wantHist := compressAt(t, 1, b)
		if k := piecesOf(t, want); k < 2 || k != wantPieces(c.dims) {
			t.Fatalf("%s: %d pieces, want %d (≥ 2)", name, k, wantPieces(c.dims))
		}
		literals += wantSt.Literals
		fails += wantSt.SpecFails
		for _, procs := range []int{2, 4} {
			got, st, ctr, hist := compressAt(t, procs, b)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: GOMAXPROCS %d: blob differs from the one-core sweep", name, procs)
			}
			if st != wantSt {
				t.Fatalf("%s: GOMAXPROCS %d: Stats %+v, one core %+v", name, procs, st, wantSt)
			}
			if !maps.Equal(ctr, wantCtr) {
				t.Fatalf("%s: GOMAXPROCS %d: counters %v, one core %v", name, procs, ctr, wantCtr)
			}
			if !maps.EqualFunc(hist, wantHist, func(a, b telemetry.HistSnapshot) bool {
				return fmt.Sprint(a) == fmt.Sprint(b)
			}) {
				t.Fatalf("%s: GOMAXPROCS %d: histograms %v, one core %v", name, procs, hist, wantHist)
			}
		}
		var dec [][]float32
		if c.temporal {
			_, dec, err = core.DecompressWithPrev(want, c.dims, prev)
		} else {
			_, dec, err = core.Decompress(want)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep := cp.Compare(cp.Detect(c.dims, comps, tr), cp.Detect(c.dims, dec, tr)); !rep.Preserved() {
			t.Fatalf("%s: FP %d FN %d FT %d", name, rep.FP, rep.FN, rep.FT)
		}
		// ST2–ST4 speculate from a multiple of τ; NoSpec and ST1 stay
		// within it.
		if e := analysis.MaxAbsError(comps, dec); c.spec <= core.ST1 && e > tau {
			t.Fatalf("%s: max error %g > τ %g", name, e, tau)
		}
	}
	if literals == 0 || fails == 0 {
		t.Fatalf("%d literal escapes, %d speculation failures: the cases missed the escape or rollback path", literals, fails)
	}
}

// TestPiecesOneSlabShmMatchesCompressBlock: the one blob of a one-slab
// shm container — the CLI's default run below 128 Ki vertices — equals
// CompressBlock of the whole field, pieces and all, on every core.
func TestPiecesOneSlabShmMatchesCompressBlock(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, dims := range [][]int{{256, 140}, {40, 36, 30}} {
		comps, _ := pieceField(dims)
		tr, err := fixed.Fit(comps...)
		if err != nil {
			t.Fatal(err)
		}
		opts := core.Options{Tau: 0.01, Spec: core.ST2}
		want, _, err := core.CompressBlock(core.Block{Dims: dims, Comps: comps, Transform: tr, Opts: opts})
		if err != nil {
			t.Fatal(err)
		}
		if k := piecesOf(t, want); k < 2 {
			t.Fatalf("%v: %d pieces, want ≥ 2", dims, k)
		}
		res, err := shm.Compress(field.MemOf(dims, comps), tr, opts, shm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Slabs != 1 {
			t.Fatalf("%v: %d default slabs, want 1", dims, res.Slabs)
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

// pieceHookPanic is the value the piece hook panics with.
const pieceHookPanic = "injected piece panic"

// panicInTask installs a piece hook that panics as task t of phase
// starts.
func panicInTask(phase, task int) (restore func()) {
	return core.SetPieceHook(func(p, t int) {
		if p == phase && t == task {
			panic(pieceHookPanic)
		}
	})
}

// TestPieceHelperPanic: a panic in a piece (phase 1) or a seam (phase
// 2), on a helper goroutine, comes back to the caller as the same value
// after the join, and leaves the pooled scratch fit for the next
// compress.
func TestPieceHelperPanic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, dims := range [][]int{{256, 140}, {40, 36, 30}} {
		comps, _ := pieceField(dims)
		tr, err := fixed.Fit(comps...)
		if err != nil {
			t.Fatal(err)
		}
		b := core.Block{Dims: dims, Comps: comps, Transform: tr, Opts: core.Options{Tau: 0.01, Spec: core.ST4}}
		want, _, err := core.CompressBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		for _, at := range [][2]int{{core.PhaseOne, 1}, {core.PhaseTwo, 0}} {
			got := func() (r any) {
				defer func() { r = recover() }()
				defer panicInTask(at[0], at[1])()
				core.CompressBlock(b)
				return nil
			}()
			if got != pieceHookPanic {
				t.Fatalf("%v: phase %d task %d: recovered %v on the caller, want the piece's panic", dims, at[0], at[1], got)
			}
			again, _, err := core.CompressBlock(b)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, want) {
				t.Fatalf("%v: the compress after a piece panic differs", dims)
			}
		}
	}
}

// TestPiecePanicDegradesShmSlab: in a one-slab shm run, a panic in one
// of the slab's pieces degrades the slab exactly as a panic on the
// slab's own goroutine does — same container, same report, same
// flight-recorder events.
func TestPiecePanicDegradesShmSlab(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	dims := []int{256, 140}
	comps, _ := pieceField(dims)
	tr, err := fixed.Fit(comps...)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Tau: 0.01}
	run := func(inj *faultinject.Injector) (shm.Result, []flightrec.Event) {
		rec := flightrec.New(64)
		res, err := shm.Compress(field.MemOf(dims, comps), tr, opts,
			shm.Options{Slabs: 1, Rec: rec, Faults: inj})
		if err != nil {
			t.Fatal(err)
		}
		return res, rec.Snapshot()
	}
	callerRes, callerEv := run(faultinject.New(faultinject.Config{
		Seed: 1, Prob: [faultinject.NumKinds]float64{faultinject.KindPanic: 1}}))
	kinds := func(evs []flightrec.Event) (out []string) {
		for _, ev := range evs {
			out = append(out, fmt.Sprintf("%v/%s/slab %d", ev.Kind, ev.Subsystem, ev.Slab))
		}
		return out
	}
	for _, at := range [][2]int{{core.PhaseOne, 1}, {core.PhaseTwo, 0}} {
		restore := panicInTask(at[0], at[1])
		pieceRes, pieceEv := run(nil)
		restore()
		if !slices.Equal(pieceRes.Degraded, []int{0}) || pieceRes.Panics != 1 {
			t.Fatalf("piece panic: %s, want slab 0 degraded after one panic", pieceRes.DegradationReport())
		}
		if !bytes.Equal(pieceRes.Blob, callerRes.Blob) {
			t.Fatal("piece panic: container differs from the caller-goroutine panic's")
		}
		if pieceRes.DegradationReport() != callerRes.DegradationReport() {
			t.Fatalf("piece panic reports %q, caller-goroutine panic %q",
				pieceRes.DegradationReport(), callerRes.DegradationReport())
		}
		if h, c := kinds(pieceEv), kinds(callerEv); !slices.Equal(h, c) {
			t.Fatalf("piece panic records %v, caller-goroutine panic %v", h, c)
		}
	}
}

// TestFinishRejectsIncompleteSweep: Finish before Run, or after the
// first phase of a two-phase or pieced block alone, is an error — the
// positional streams would otherwise pack unvisited slots as zero
// codes. So is a second Run or phase: its vertices' stream positions
// are already taken.
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
	big := datagen.Ocean(256, 140)
	btr, err := fixed.Fit(big.U, big.V)
	if err != nil {
		t.Fatal(err)
	}
	pieced := core.Block{Dims: big.Dims(), Comps: big.Components(), Transform: btr, Opts: core.Options{Tau: 0.01}}
	for _, blk := range []core.Block{b, pieced} {
		enc, err := core.NewEncoder(blk)
		if err != nil {
			t.Fatal(err)
		}
		defer enc.Close()
		enc.RunPhase1()
		if _, err := enc.Finish(); err == nil {
			t.Fatalf("%v: Finish after RunPhase1 alone succeeded", blk.Dims)
		}
		enc.RunPhase2()
		if _, err := enc.Finish(); err != nil {
			t.Fatalf("%v: Finish after both phases: %v", blk.Dims, err)
		}
	}

	// A second sweep, on one core and on two, on a one-piece and a pieced
	// block and on each phase of a two-phase or pieced block.
	raster := core.Block{Dims: f.Dims(), Comps: f.Components(), Transform: tr, Opts: core.Options{Tau: 0.01}}
	for _, procs := range []int{1, 2} {
		for _, tc := range []struct {
			name string
			blk  core.Block
			runs func(*core.Encoder)
		}{
			{"Run twice (raster)", raster, func(e *core.Encoder) { e.Run(); e.Run() }},
			{"Run twice", pieced, func(e *core.Encoder) { e.Run(); e.Run() }},
			{"RunPhase1 twice", b, func(e *core.Encoder) { e.RunPhase1(); e.RunPhase1(); e.RunPhase2() }},
			{"RunPhase2 twice", b, func(e *core.Encoder) { e.RunPhase1(); e.RunPhase2(); e.RunPhase2() }},
			{"Run after RunPhase1", b, func(e *core.Encoder) { e.RunPhase1(); e.Run() }},
			{"pieces: RunPhase2 twice", pieced, func(e *core.Encoder) { e.RunPhase1(); e.RunPhase2(); e.RunPhase2() }},
			{"pieces: Run after RunPhase1", pieced, func(e *core.Encoder) { e.RunPhase1(); e.Run() }},
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
