package core

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fixed"
	"repro/internal/quantizer"
)

// The shapes at and just below the pipeline's vertex floor.
var (
	atFloor2D    = []int{64, minPipelineVertices / 64}
	belowFloor2D = []int{64, minPipelineVertices/64 - 1}
	atFloor3D    = []int{16, 16, minPipelineVertices / 256}
	belowFloor3D = []int{16, 16, minPipelineVertices/256 - 1}
	// Whole-domain shapes of two pieces.
	twoPieces2D = []int{128, 2 * minPieceVertices / 128}
	twoPieces3D = []int{32, 32, 2 * minPieceVertices / 1024}
)

// spikyField returns a smooth field of the given dims with a spike on
// every 97th value, which forces lossless vertices and literal escapes,
// and a previous frame for temporal prediction.
func spikyField(seed int64, dims []int) (comps, prev [][]float32) {
	var f, p interface{ Components() [][]float32 }
	if len(dims) == 2 {
		f, p = smooth2D(seed, dims[0], dims[1]), smooth2D(seed+1, dims[0], dims[1])
	} else {
		f, p = smooth3D(seed, dims[0], dims[1], dims[2]), smooth3D(seed+1, dims[0], dims[1], dims[2])
	}
	comps, prev = f.Components(), p.Components()
	for c, z := range comps {
		lo, hi := slices.Min(z), slices.Max(z)
		for i := range z {
			prev[c][i] = z[i] + 0.01*(prev[c][i]-z[i])
			if i%97 == 13+c {
				z[i] += 0.4 * (hi - lo)
			}
		}
	}
	return comps, prev
}

// placedBlock turns b into a piece of a larger field with a neighbor on
// its min-X side and every max side, under the lossless-border or the
// two-phase strategy.
func placedBlock(b Block, twoPhase bool) Block {
	b.Origin = make([]int, len(b.Dims))
	b.Global = make([]int, len(b.Dims))
	b.Origin[0] = 1
	for a, d := range b.Dims {
		b.Global[a] = d + 1 + b.Origin[a]
		b.Neighbor[2*a+1] = true
	}
	b.Neighbor[SideMinX] = true
	b.LosslessBorder, b.TwoPhase = !twoPhase, twoPhase
	return b
}

// pipelineCount installs a pipeline hook that counts pipelined decodes.
func pipelineCount(t *testing.T) *atomic.Int64 {
	t.Helper()
	var n atomic.Int64
	pipelineHook = func() { n.Add(1) }
	t.Cleanup(func() { pipelineHook = nil })
	return &n
}

// decodeAt decodes blob under GOMAXPROCS procs, against prev when the
// block is temporal.
func decodeAt(procs int, blob []byte, dims []int, prev [][]float32) ([][]float32, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	_, comps, err := DecompressWithPrev(blob, dims, prev)
	return comps, err
}

// TestDecodePipelineMatchesSerial decodes 2D and 3D blocks — at every
// speculation level, spatial and temporal, raster, lossless-border and
// two-phase, with literal escapes, at and just below the pipeline's
// vertex floor — under GOMAXPROCS 1 (the serial decode), 2 and 4. Every
// decode must return the values the encoder reconstructed, and exactly
// the whole-domain blocks at or above the floor may pipeline.
func TestDecodePipelineMatchesSerial(t *testing.T) {
	type tc struct {
		dims     []int
		spec     Speculation
		temporal bool
		placed   string  // "", "border" or "two-phase"
		tau      float64 // 0: 0.02
	}
	var cases []tc
	for _, dims := range [][]int{atFloor2D, atFloor3D} {
		for _, spec := range []Speculation{NoSpec, ST1, ST2, ST3, ST4} {
			for _, temporal := range []bool{false, true} {
				cases = append(cases, tc{dims, spec, temporal, "", 0})
			}
		}
		for _, placed := range []string{"border", "two-phase"} {
			cases = append(cases, tc{dims, ST1, false, placed, 0}, tc{dims, NoSpec, true, placed, 0})
		}
	}
	for _, dims := range [][]int{belowFloor2D, belowFloor3D} {
		cases = append(cases, tc{dims, NoSpec, false, "", 0}, tc{dims, ST4, true, "", 0})
	}
	for _, dims := range [][]int{twoPieces2D, twoPieces3D} {
		cases = append(cases, tc{dims, NoSpec, false, "", 0}, tc{dims, ST2, false, "", 0}, tc{dims, ST4, true, "", 0})
	}
	// At a large bound every kind of 2D block predicts with the reduced
	// stencil.
	for _, placed := range []string{"", "border", "two-phase"} {
		cases = append(cases, tc{atFloor2D, ST1, false, placed, 0.5})
	}
	cases = append(cases, tc{twoPieces2D, NoSpec, false, "", 0.5})
	pipelined := pipelineCount(t)
	escapes := 0
	// stencils counts the blocks of each dimension by stencil.
	stencils := map[string]int{}
	for i, c := range cases {
		name := fmt.Sprintf("%v %v temporal=%v %s", c.dims, c.spec, c.temporal, c.placed)
		comps, prev := spikyField(int64(300+i), c.dims)
		tr, err := fixed.Fit(append(slices.Clone(comps), prev...)...)
		if err != nil {
			t.Fatal(err)
		}
		b := Block{Dims: c.dims, Comps: comps, Transform: tr, Opts: Options{Tau: cmp.Or(c.tau, 0.02), Spec: c.spec}}
		if c.temporal {
			b.Prev = prev
		}
		if c.placed != "" {
			b = placedBlock(b, c.placed == "two-phase")
		}
		enc, err := NewEncoder(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		enc.Run()
		blob, err := enc.Finish()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := enc.Decompressed()
		escapes += enc.Stats().Literals
		stencils[fmt.Sprintf("%dD reduced=%v", len(c.dims), enc.k.order.reduced)]++
		if c.tau > 0 && !enc.k.order.reduced {
			t.Errorf("%s: τ %g chose the full stencil", name, c.tau)
		}
		for _, ts := range enc.k.streams {
			for rest := ts.res; len(rest) > 0; {
				var r int64
				r, rest, _ = readResidual(rest)
				if r >= quantizer.Radius || r <= -quantizer.Radius {
					escapes++ // past the code range: an escape before version 3
				}
			}
		}
		enc.Close()
		wantPipelined := c.placed == "" && len(comps[0]) >= minPipelineVertices
		for _, procs := range []int{1, 2, 4} {
			before := pipelined.Load()
			got, err := decodeAt(procs, blob, c.dims, prev)
			if err != nil {
				t.Fatalf("%s: GOMAXPROCS %d: %v", name, procs, err)
			}
			for k := range want {
				if !slices.Equal(got[k], want[k]) {
					t.Fatalf("%s: GOMAXPROCS %d: component %d differs from the encoder's reconstruction", name, procs, k)
				}
			}
			if ran := pipelined.Load() - before; ran != 0 != (wantPipelined && procs > 1) {
				t.Fatalf("%s: GOMAXPROCS %d: %d pipelined decodes, want pipelined = %v", name, procs, ran, wantPipelined && procs > 1)
			}
		}
	}
	if escapes == 0 {
		t.Fatal("no escapes: the cases missed values past the code range")
	}
	t.Logf("blocks by stencil: %v", stencils)
	for _, key := range []string{"2D reduced=false", "2D reduced=true", "3D reduced=false", "3D reduced=true"} {
		if stencils[key] == 0 {
			t.Errorf("no block is %s", key)
		}
	}
}

// TestDecodeLiteralEscapesPipeline: lossy components escaped to the
// literal stream decode to their literals, pipelined or not. Lossy
// escapes are rare in real blocks (a bound-0 residual never escapes),
// so the block is crafted: every 37th lossy code becomes an escape.
func TestDecodeLiteralEscapesPipeline(t *testing.T) {
	comps, _ := spikyField(410, twoPieces2D)
	blob, _, err := Compress(twoPieces2D, comps, Options{Tau: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	p := partsOf(t, blob)
	if len(p.lits) != 0 {
		t.Fatalf("the block already has %d literal bytes", len(p.lits))
	}
	var want []int64
	for i := 0; i < len(p.code); i += 37 {
		v := int64(1000*i - 500000)
		p.code[i] = escapeSym
		p.lits = appendLiteral(p.lits, v)
		want = append(want, v)
	}
	crafted := p.seal(t)
	serial, err := decodeAt(1, crafted, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	pipelined := pipelineCount(t)
	got, err := decodeAt(2, crafted, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pipelined.Load() == 0 {
		t.Fatal("the decode did not pipeline")
	}
	for c := range serial {
		if !slices.Equal(got[c], serial[c]) {
			t.Fatalf("component %d: the pipelined decode differs from the serial one", c)
		}
	}
	// The escaped values, in visit order: the i-th lossy code is vertex
	// i/2's component i%2 in the stream, and the block's transform maps
	// each literal to a float.
	tr, err := fixed.Fit(comps...)
	if err != nil {
		t.Fatal(err)
	}
	o := vertexOrder{nx: twoPieces2D[0], ny: twoPieces2D[1], nz: 1, pieces: p.h.Pieces}
	idx := make([]int, 0, len(p.exp))
	_ = o.allRuns(func(r orderRun) error {
		for i := r.i0; i < r.i1; i++ {
			idx = append(idx, r.oj*o.nx+i)
		}
		return nil
	})
	ci, k := 0, 0
	for pos, e := range p.exp {
		if e == uint32(quantizer.LosslessSym) {
			continue
		}
		for c := 0; c < 2; c++ {
			if ci%37 == 0 {
				var f [1]float32
				tr.ToFloat(want[k:k+1], f[:])
				if serial[c][idx[pos]] != f[0] {
					t.Fatalf("escape %d: decoded %v, literal %v", k, serial[c][idx[pos]], f[0])
				}
				k++
			}
			ci++
		}
	}
	if k != len(want) {
		t.Fatalf("checked %d of %d escapes", k, len(want))
	}
}

// settled waits until at most n goroutines run, and fails t if that
// takes longer than a second.
func settled(t *testing.T, what string, n int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines running after the decode, %d before", what, runtime.NumGoroutine(), n)
		}
	}
}

// TestDecodeCorruptCodeStreamStopsPipeline: a truncated or bit-flipped
// code stream, an off-grid bound symbol and a panic on the helper
// goroutine each end a pipelined decode with the serial decode's error
// (for the panic, an error), leave no goroutine running, and leave the
// pooled scratch fit for the next decode.
func TestDecodeCorruptCodeStreamStopsPipeline(t *testing.T) {
	comps, _ := spikyField(400, atFloor2D)
	tr, err := fixed.Fit(comps...)
	if err != nil {
		t.Fatal(err)
	}
	blob, _, err := CompressBlock(Block{Dims: atFloor2D, Comps: comps, Transform: tr, Opts: Options{Tau: 0.02}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := decodeAt(1, blob, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	codeBits := func(secs [][]byte) []byte { return secs[2][len(secs[2])/4:] }
	cases := []struct {
		name string
		blob []byte
		want string // the error's text, where the serial decode's is fixed
	}{
		{"truncated code stream", reseal(t, blob, func(_ *header, secs [][]byte) {
			secs[2] = secs[2][:len(secs[2])*7/8]
		}), ""},
		{"bit-flipped code stream", reseal(t, blob, func(_ *header, secs [][]byte) {
			bits := codeBits(secs)
			for i := 0; i < len(bits); i += 5 {
				bits[i] ^= 0x5A
			}
		}), ""},
		{"off-grid bound symbol", craft(t, blob, func(_ *header, exp []uint32) {
			exp[len(exp)*3/4] = 100
		}), "core: corrupt bound stream: symbol 100 is off the bound grid"},
	}
	pipelined := pipelineCount(t)
	for _, c := range cases {
		serial, err := decodeAt(1, c.blob, nil, nil)
		if err == nil || serial != nil {
			t.Fatalf("%s: serial decode returned no error", c.name)
		}
		t.Logf("%s: %v", c.name, err)
		if c.want != "" && err.Error() != c.want {
			t.Fatalf("%s: serial error %q, want %q", c.name, err, c.want)
		}
		n := runtime.NumGoroutine()
		before := pipelined.Load()
		_, perr := decodeAt(2, c.blob, nil, nil)
		if pipelined.Load() == before {
			t.Fatalf("%s: the decode did not pipeline", c.name)
		}
		if perr == nil || perr.Error() != err.Error() {
			t.Fatalf("%s: pipelined error %v, serial %v", c.name, perr, err)
		}
		settled(t, c.name, n)
	}

	pipelineHook = func() { panic("injected code-decoder panic") }
	n := runtime.NumGoroutine()
	if _, err := decodeAt(2, blob, nil, nil); err == nil || !strings.Contains(err.Error(), "injected code-decoder panic") {
		t.Fatalf("helper panic: decode error %v, want the panic as an error", err)
	}
	settled(t, "helper panic", n)
	pipelineHook = nil
	for _, procs := range []int{2, 1} {
		got, err := decodeAt(procs, blob, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if !slices.Equal(got[k], want[k]) {
				t.Fatalf("GOMAXPROCS %d: the decode after the failures differs", procs)
			}
		}
	}
}
