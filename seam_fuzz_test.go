package repro

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/archive"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/cp"
	"repro/internal/faultinject"
	"repro/internal/field"
	"repro/internal/fixed"
	"repro/internal/mpi"
	"repro/internal/parallel"
	"repro/internal/server"
	"repro/internal/shm"
)

// Seam-equivalence fuzzing: every entry point that cuts a field into
// slabs must produce the same container for the same slab count, and
// that container must keep the paper's guarantee across every
// two-phase seam. The entry points are shm at workers {1, 2, 4} ×
// window {1, 2, 3, unbounded}, the codec, and an in-process topozipd;
// the slab counts are 1, 2 and a count with two-plane slabs or one in
// between. Both distributed strategies (lossless borders and the
// ratio-oriented ghost exchange, on a grid of up to two ranks per axis)
// must keep the guarantee on the same field. Fields are generated or
// adversarial: constant, exact zeros on whole planes (seam planes
// included), slabs of two planes, values on the transform's edge,
// injected worker panics that degrade slabs on either side of a seam,
// and one-slab fields large enough that the block sweeps in slow-axis
// pieces, whose seams sit inside the block. A field with a NaN or an
// infinity, or with a value past a caller-built transform, must be
// refused by every entry point that takes it with a *fixed.DomainError
// naming the value's index in the field. ST1 speculates without
// widening the bound (ST2–ST4 start from a multiple of τ), so every
// decoded value is within τ.

// seamField kinds.
const (
	seamSmooth = iota
	seamConstant
	seamZeros
	seamTwoPlane
	seamEdge
	seamDegraded
	seamPieces
	seamNonFinite
	seamMismatch
	seamKinds
)

// seamCase is one fuzzed field: dims, components, the slab count and,
// for seamDegraded, a panic injector config.
type seamCase struct {
	dims   []int
	comps  [][]float32
	slabs  int
	faults *faultinject.Config
	// tr, when set, is a caller's transform in place of the fitted one
	// the codec and the daemon use; only the entry points that take a
	// transform run then.
	tr *fixed.Transform
	// bad, when set, is the error every entry point must refuse the
	// field with.
	bad *fixed.DomainError
}

func newSeamCase(kind, nx, ny, nz, slabSel uint8, seed uint64) seamCase {
	k := int(kind) % seamKinds
	dims := []int{2 + int(nx)%14, 4 + int(ny)%28}
	if nz != 0 {
		dims = []int{2 + int(nx)%8, 2 + int(ny)%8, 4 + int(nz)%16}
	}
	if k == seamPieces {
		// At least 32 Ki vertices: two pieces or more.
		dims = []int{256 + int(nx)%32, 128 + int(ny)%16}
		if nz != 0 {
			dims = []int{32 + int(nx)%4, 32 + int(ny)%4, 32 + int(nz)%4}
		}
	}
	nSlow := dims[len(dims)-1]
	if k == seamTwoPlane {
		nSlow &^= 1
		dims[len(dims)-1] = nSlow
	}
	n := 1
	for _, d := range dims {
		n *= d
	}
	plane := n / nSlow
	rnd := lcgFloat(seed)
	comps := make([][]float32, len(dims))
	for c := range comps {
		comps[c] = make([]float32, n)
		for v := range comps[c] {
			x := float64(v%dims[0]) * 0.37
			y := float64(v/dims[0]) * 0.29
			comps[c][v] = float32(math.Sin(x+float64(c))*math.Cos(y)) + 0.1*rnd()
		}
	}
	switch k {
	case seamConstant:
		for c := range comps {
			for v := range comps[c] {
				comps[c][v] = 0.25 * float32(c+1)
			}
		}
	case seamZeros:
		// Zero every other plane in one component and one whole plane in
		// all, so seam planes and their ghosts hold exact zeros.
		for p := 0; p < nSlow; p += 2 {
			clear(comps[int(seed%uint64(len(comps)))][p*plane : (p+1)*plane])
		}
		for c := range comps {
			z := nSlow / 2
			clear(comps[c][z*plane : (z+1)*plane])
		}
	case seamEdge, seamNonFinite, seamMismatch:
		// Under a caller's transform of 2^20 units per unit, ±1 sits
		// exactly on the fixed-point contract's edge.
		for c := range comps {
			for v := range comps[c] {
				comps[c][v] /= 1.25
			}
		}
	}
	sc := seamCase{dims: dims, comps: comps}
	switch k {
	case seamEdge:
		// One edge value on every plane puts it on every seam and ghost
		// plane.
		for c := range comps {
			for p := 0; p < nSlow; p++ {
				comps[c][p*plane+(p+c)%plane] = float32(1 - 2*((p+c)%2))
			}
		}
	case seamNonFinite, seamMismatch:
		// One bad value at a generated index: a NaN or an infinity, or
		// twice the edge.
		mix := seed * 0x9e3779b97f4a7c15
		c, i := int(mix>>60)%len(comps), int(mix>>20)%n
		v := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}[seed%3]
		if k == seamMismatch {
			v = float32(2 - 4*int(mix>>40&1))
		}
		comps[c][i] = v
		sc.bad = &fixed.DomainError{Component: c, Index: i, Value: float64(v)}
	}
	if k == seamEdge || sc.bad != nil {
		tr := fixed.FromShift(20)
		sc.tr = &tr
	}
	switch int(slabSel) % 3 {
	case 0:
		sc.slabs = 1
	case 1:
		sc.slabs = 2
	default:
		sc.slabs = max(2, nSlow/2-int(seed%2)) // two-plane slabs, or one fewer
	}
	if k == seamTwoPlane {
		sc.slabs = nSlow / 2
	}
	if k == seamPieces {
		sc.slabs = 1
	}
	if k == seamDegraded {
		sc.faults = &faultinject.Config{Seed: seed,
			Prob: [faultinject.NumKinds]float64{faultinject.KindPanic: 0.5}}
	}
	return sc
}

func lcgFloat(s uint64) func() float32 {
	return func() float32 {
		s = s*6364136223846793005 + 1442695040888963407
		return float32(int32(s>>33)) / float32(1<<31)
	}
}

// pieces reports a one-slab case of two pieces' worth of vertices.
func (sc seamCase) pieces() bool {
	return sc.slabs == 1 && sc.faults == nil && len(sc.comps[0]) >= 32<<10
}

// oneSlabBlob returns the block of a one-slab container.
func oneSlabBlob(t *testing.T, container []byte) []byte {
	t.Helper()
	sr, err := archive.OpenStream(bytes.NewReader(container), int64(len(container)))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := sr.ReadBlobInto(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func (sc seamCase) injector() *faultinject.Injector {
	if sc.faults == nil {
		return nil
	}
	return faultinject.New(*sc.faults)
}

// FuzzSeamEquivalence is the harness; `make fuzz` runs it and `make
// faults` runs its seed corpus.
func FuzzSeamEquivalence(f *testing.F) {
	for kind := uint8(0); kind < seamKinds; kind++ {
		f.Add(kind, uint8(30), uint8(20), uint8(0), uint8(kind), uint64(kind)+1)
		f.Add(kind, uint8(5), uint8(4), uint8(9), uint8(kind+1), uint64(kind)+11)
		f.Add(kind, uint8(9), uint8(27), uint8(0), uint8(kind+2), uint64(kind)+21)
	}
	srv := server.New(server.Config{WorkersPerRequest: 2, SpoolDir: f.TempDir()})
	f.Fuzz(func(t *testing.T, kind, nx, ny, nz, slabSel uint8, seed uint64) {
		sc := newSeamCase(kind, nx, ny, nz, slabSel, seed)
		checkSeams(t, srv, sc)
	})
}

func checkSeams(t *testing.T, srv *server.Server, sc seamCase) {
	goroutines := runtime.NumGoroutine()
	if sc.bad != nil {
		checkRefused(t, srv, sc)
	} else {
		checkGuarantee(t, srv, sc)
	}
	// Every slab run has joined its workers, and every simulated machine
	// its ranks, before returning, so none may be left behind.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > goroutines; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d -> %d", goroutines, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func checkGuarantee(t *testing.T, srv *server.Server, sc seamCase) {
	src := field.MemOf(sc.dims, sc.comps)
	stats, err := field.SourceStats(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := fixed.FromMaxAbs(stats.MaxAbs)
	if sc.tr != nil {
		tr = *sc.tr
	}
	tau := 0.01 * stats.Range()
	if tau < tr.Resolution() {
		tau = 2 * tr.Resolution() // a constant field has no range
	}
	opts := core.Options{Tau: tau, Spec: core.ST1}
	ref, err := shm.Compress(src, tr, opts, shm.Options{Workers: 1, Slabs: sc.slabs, Faults: sc.injector()})
	if err != nil {
		t.Fatalf("dims %v, %d slabs: %v", sc.dims, sc.slabs, err)
	}
	workers, windows := []int{1, 2, 4}, []int{1, 2, 3, 0}
	if sc.pieces() {
		// One slab runs on one worker alone, whatever the options; the
		// pieces inside it are held to the serial sweep by core's tests.
		workers, windows = []int{2}, []int{0}
	}
	for _, w := range workers {
		for _, window := range windows {
			res, err := shm.Compress(src, tr, opts, shm.Options{Workers: w, Window: window,
				Slabs: sc.slabs, Faults: sc.injector()})
			if err != nil {
				t.Fatalf("workers %d window %d: %v", w, window, err)
			}
			if !bytes.Equal(res.Blob, ref.Blob) || !slicesEqual(res.Degraded, ref.Degraded) {
				t.Fatalf("dims %v, %d slabs: workers %d window %d differ from workers 1 unbounded (degraded %v vs %v)",
					sc.dims, sc.slabs, w, window, res.Degraded, ref.Degraded)
			}
		}
	}
	if sc.tr == nil {
		checkEntryPoints(t, srv, sc, tau, ref.Blob)
	}
	if sc.pieces() {
		blob, _, err := core.CompressBlock(core.Block{Dims: sc.dims, Comps: sc.comps, Transform: tr, Opts: opts})
		if err != nil {
			t.Fatal(err)
		}
		// A whole-domain block sweeps in min(n/16 Ki, nSlow/2) pieces.
		if k := min(len(sc.comps[0])>>14, sc.dims[len(sc.dims)-1]/2); k < 2 {
			t.Fatalf("dims %v: the whole block sweeps in %d pieces, want ≥ 2", sc.dims, k)
		}
		if got := oneSlabBlob(t, ref.Blob); !bytes.Equal(got, blob) {
			t.Fatalf("dims %v: the one-slab container's blob differs from CompressBlock", sc.dims)
		}
	}

	dec := make([][]float32, len(sc.comps))
	for c := range dec {
		dec[c] = make([]float32, len(sc.comps[c]))
	}
	if err := shm.Decompress(ref.Blob, 2, field.MemOf(sc.dims, dec)); err != nil {
		t.Fatal(err)
	}
	orig := cp.Detect(sc.dims, sc.comps, tr)
	checkDecoded(t, sc, fmt.Sprintf("%d slabs (degraded %v)", sc.slabs, ref.Degraded), orig, dec, tr, tau)

	// Both distributed strategies keep the guarantee on the same field.
	grid := strategyGrid(sc.dims)
	for _, strat := range []parallel.Strategy{parallel.LosslessBorders, parallel.RatioOriented} {
		res, err := parallel.CompressDistributed(sc.dims, sc.comps, grid, tr, opts, strat, mpi.Config{})
		if err != nil {
			t.Fatalf("dims %v, %v on %v: %v", sc.dims, strat, grid, err)
		}
		dec, _, err := parallel.DecompressDistributed(res.Blobs, sc.dims, grid, mpi.Config{})
		if err != nil {
			t.Fatalf("dims %v, %v on %v: %v", sc.dims, strat, grid, err)
		}
		checkDecoded(t, sc, fmt.Sprintf("%v on %v", strat, grid), orig, dec, tr, tau)
	}
}

// strategyGrid puts two ranks on every axis that holds two points per
// rank, one on the others.
func strategyGrid(dims []int) []int {
	grid := make([]int, len(dims))
	for a, d := range dims {
		grid[a] = 1 + min(1, d/4)
	}
	return grid
}

// checkDecoded holds a decoded field to FP = FN = FT = 0 against the
// original critical points and to max error ≤ τ.
func checkDecoded(t *testing.T, sc seamCase, what string, orig []cp.Point, dec [][]float32, tr fixed.Transform, tau float64) {
	t.Helper()
	rep := cp.Compare(orig, cp.Detect(sc.dims, dec, tr))
	if !rep.Preserved() {
		t.Fatalf("dims %v, %s: FP %d FN %d FT %d", sc.dims, what, rep.FP, rep.FN, rep.FT)
	}
	if e := analysis.MaxAbsError(sc.comps, dec); e > tau {
		t.Fatalf("dims %v, %s: max error %g > τ %g", sc.dims, what, e, tau)
	}
}

// checkRefused holds every entry point that takes the field to the
// case's *fixed.DomainError, at the bad value's index in the field: the
// ones that take a transform under the case's caller-built one, and,
// for a non-finite value, the ones that fit their own too.
func checkRefused(t *testing.T, srv *server.Server, sc seamCase) {
	tr, want := *sc.tr, sc.bad
	tau := 0.01
	opts := core.Options{Tau: tau, Spec: core.ST1}
	nonFinite := math.IsNaN(want.Value) || math.IsInf(want.Value, 0)
	check := func(entry string, err error) {
		t.Helper()
		var de *fixed.DomainError
		if !errors.As(err, &de) || de.Param != "" || de.Component != want.Component || de.Index != want.Index {
			t.Fatalf("dims %v, %v at component %d index %d: %s returned %v", sc.dims, want.Value,
				want.Component, want.Index, entry, err)
		}
	}
	_, _, err := core.CompressBlock(core.Block{Dims: sc.dims, Comps: sc.comps, Transform: tr, Opts: opts})
	check("core.CompressBlock", err)
	src := field.MemOf(sc.dims, sc.comps)
	for _, w := range []int{1, 2, 4} {
		for _, window := range []int{1, 2, 3, 0} {
			_, err := shm.Compress(src, tr, opts, shm.Options{Workers: w, Window: window, Slabs: sc.slabs})
			check(fmt.Sprintf("shm.Compress, %d slabs, workers %d window %d", sc.slabs, w, window), err)
		}
	}
	grid := strategyGrid(sc.dims)
	for _, strat := range []parallel.Strategy{parallel.LosslessBorders, parallel.RatioOriented} {
		_, err := parallel.CompressDistributed(sc.dims, sc.comps, grid, tr, opts, strat, mpi.Config{})
		check(fmt.Sprintf("%v on %v", strat, grid), err)
	}
	if !nonFinite {
		return // the rest fit their own transform, which the value is within
	}
	_, _, err = core.Compress(sc.dims, sc.comps, opts)
	check("core.Compress", err)
	cdc, err := codec.Lookup(codec.FormatCP, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = cdc.Compress(src, io.Discard, codec.Params{Dims: sc.dims, Tau: tau, TauAbsolute: true, Spec: "ST1",
		Pipeline: shm.Options{Workers: 2, Slabs: sc.slabs}})
	check("the codec", err)
	code, body := daemonPost(t, srv, sc, tau)
	if at := fmt.Sprintf("component %d, index %d", want.Component, want.Index); code != http.StatusUnprocessableEntity || !strings.Contains(body, at) {
		t.Fatalf("dims %v: topozipd answered %d %q, want 422 naming %s", sc.dims, code, body, at)
	}
}

// checkEntryPoints holds the codec's and the in-process daemon's
// containers to shm's: the codec at the same slab count, the daemon
// (which picks DefaultSlabs) when that is the case's count and no fault
// is injected.
func checkEntryPoints(t *testing.T, srv *server.Server, sc seamCase, tau float64, want []byte) {
	cdc, err := codec.Lookup(codec.FormatCP, 0)
	if err != nil {
		t.Fatal(err)
	}
	params := codec.Params{Dims: sc.dims, Tau: tau, TauAbsolute: true, Spec: "ST1",
		Pipeline: shm.Options{Workers: 2, Slabs: sc.slabs, Faults: sc.injector()}}
	var buf bytes.Buffer
	if _, err := cdc.Compress(field.MemOf(sc.dims, sc.comps), &buf, params); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("dims %v, %d slabs: codec bytes differ from shm", sc.dims, sc.slabs)
	}
	if sc.faults == nil && sc.slabs == shm.DefaultSlabs(sc.dims) {
		if got := daemonCompress(t, srv, sc, tau); !bytes.Equal(got, want) {
			t.Fatalf("dims %v: topozipd bytes differ from shm", sc.dims)
		}
	}
}

// daemonCompress posts the field to the in-process daemon's compress
// endpoint with the absolute bound tau and returns the container.
func daemonCompress(t *testing.T, srv *server.Server, sc seamCase, tau float64) []byte {
	code, body := daemonPost(t, srv, sc, tau)
	if code != http.StatusOK {
		t.Fatalf("topozipd compress: %d %s", code, body)
	}
	return []byte(body)
}

// daemonPost posts the field to the in-process daemon's compress
// endpoint with the absolute bound tau and returns the status and body.
func daemonPost(t *testing.T, srv *server.Server, sc seamCase, tau float64) (int, string) {
	var body bytes.Buffer
	if err := field.WriteRaw(&body, sc.comps...); err != nil {
		t.Fatal(err)
	}
	dims := strconv.Itoa(sc.dims[0])
	for _, d := range sc.dims[1:] {
		dims += "x" + strconv.Itoa(d)
	}
	url := fmt.Sprintf("/v1/compress?dims=%s&tau=%s&abs=true&spec=ST1", dims, strconv.FormatFloat(tau, 'g', -1, 64))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, url, &body))
	return rec.Code, rec.Body.String()
}

func slicesEqual(a, b []int) bool {
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
