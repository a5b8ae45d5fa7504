package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cp"
	"repro/internal/field"
	"repro/internal/fixed"
)

// block2D and block3D describe a whole field as one single-node Block.
func block2D(f *field.Field2D, tr fixed.Transform, opts Options) Block {
	return Block{Dims: []int{f.NX, f.NY}, Comps: f.Components(), Transform: tr, Opts: opts}
}

func block3D(f *field.Field3D, tr fixed.Transform, opts Options) Block {
	return Block{Dims: []int{f.NX, f.NY, f.NZ}, Comps: f.Components(), Transform: tr, Opts: opts}
}

// smooth2D builds a smooth synthetic field with several critical points.
func smooth2D(seed int64, nx, ny int) *field.Field2D {
	rng := rand.New(rand.NewSource(seed))
	type mode struct{ ax, ay, px, py, amp float64 }
	modes := make([]mode, 6)
	for i := range modes {
		modes[i] = mode{
			ax:  (rng.Float64() + 0.5) * 4 * math.Pi / float64(nx),
			ay:  (rng.Float64() + 0.5) * 4 * math.Pi / float64(ny),
			px:  rng.Float64() * 2 * math.Pi,
			py:  rng.Float64() * 2 * math.Pi,
			amp: rng.Float64() + 0.2,
		}
	}
	f := field.NewField2D(nx, ny)
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			var u, v float64
			for _, m := range modes {
				u += m.amp * math.Sin(m.ax*float64(i)+m.px) * math.Cos(m.ay*float64(j)+m.py)
				v += m.amp * math.Cos(m.ax*float64(i)+m.py) * math.Sin(m.ay*float64(j)+m.px)
			}
			idx := f.Idx(i, j)
			f.U[idx] = float32(u)
			f.V[idx] = float32(v)
		}
	}
	return f
}

func smooth3D(seed int64, nx, ny, nz int) *field.Field3D {
	rng := rand.New(rand.NewSource(seed))
	type mode struct{ ax, ay, az, p1, p2, p3, amp float64 }
	modes := make([]mode, 4)
	for i := range modes {
		modes[i] = mode{
			ax:  (rng.Float64() + 0.5) * 4 * math.Pi / float64(nx),
			ay:  (rng.Float64() + 0.5) * 4 * math.Pi / float64(ny),
			az:  (rng.Float64() + 0.5) * 4 * math.Pi / float64(nz),
			p1:  rng.Float64() * 2 * math.Pi,
			p2:  rng.Float64() * 2 * math.Pi,
			p3:  rng.Float64() * 2 * math.Pi,
			amp: rng.Float64() + 0.2,
		}
	}
	f := field.NewField3D(nx, ny, nz)
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				var u, v, w float64
				x, y, z := float64(i), float64(j), float64(k)
				for _, m := range modes {
					u += m.amp * math.Sin(m.ax*x+m.p1) * math.Cos(m.ay*y+m.p2) * math.Cos(m.az*z+m.p3)
					v += m.amp * math.Cos(m.ax*x+m.p2) * math.Sin(m.ay*y+m.p3) * math.Cos(m.az*z+m.p1)
					w += m.amp * math.Cos(m.ax*x+m.p3) * math.Cos(m.ay*y+m.p1) * math.Sin(m.az*z+m.p2)
				}
				idx := f.Idx(i, j, k)
				f.U[idx] = float32(u)
				f.V[idx] = float32(v)
				f.W[idx] = float32(w)
			}
		}
	}
	return f
}

func maxAbsErr(a, b []float32) float64 {
	m := 0.0
	for i := range a {
		d := math.Abs(float64(a[i]) - float64(b[i]))
		if d > m {
			m = d
		}
	}
	return m
}

func TestHeaderRoundTrip(t *testing.T) {
	h := header{
		NDim: 3, NX: 100, NY: 200, NZ: 50, Shift: 17, Tau: 12345,
		Spec: ST3, Order: orderTwoPhase,
		HasGhost: [6]bool{true, false, true, true, false, true},
		Border:   true,
		HasCRC:   true, PayloadCRC: 0xdeadbeef,
	}
	var got header
	if err := got.unmarshal(h.marshal()); err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("header round trip: %+v != %+v", got, h)
	}
	if err := got.unmarshal([]byte{1, 2}); err == nil {
		t.Error("short header should fail")
	}
	if err := got.unmarshal(make([]byte, 16)); err == nil {
		t.Error("bad magic should fail")
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := (Options{}).Validate(); err == nil {
		t.Error("zero Tau must be rejected")
	}
	if err := (Options{Tau: 0.1, Spec: Speculation(9)}).Validate(); err == nil {
		t.Error("unknown speculation must be rejected")
	}
	if err := (Options{Tau: 0.1, Spec: ST4}).Validate(); err != nil {
		t.Error(err)
	}
}

func TestSpeculationString(t *testing.T) {
	for s, want := range map[Speculation]string{NoSpec: "NoSpec", ST1: "ST1", ST2: "ST2", ST3: "ST3", ST4: "ST4"} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}

func TestRoundTrip2DErrorBound(t *testing.T) {
	f := smooth2D(1, 48, 40)
	const tau = 0.01
	blob, _, err := Compress(f.Dims(), f.Components(), Options{Tau: tau})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Decompress2D(blob)
	if err != nil {
		t.Fatal(err)
	}
	if g.NX != f.NX || g.NY != f.NY {
		t.Fatalf("dims %dx%d", g.NX, g.NY)
	}
	if e := maxAbsErr(f.U, g.U); e > tau {
		t.Errorf("u error %v > tau", e)
	}
	if e := maxAbsErr(f.V, g.V); e > tau {
		t.Errorf("v error %v > tau", e)
	}
	raw := float64(len(f.U)+len(f.V)) * 4
	if cr := raw / float64(len(blob)); cr < 2 {
		t.Errorf("compression ratio %.2f too low for smooth data", cr)
	}
}

func TestRoundTrip3DErrorBound(t *testing.T) {
	f := smooth3D(2, 14, 12, 10)
	const tau = 0.01
	blob, _, err := Compress(f.Dims(), f.Components(), Options{Tau: tau})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Decompress3D(blob)
	if err != nil {
		t.Fatal(err)
	}
	for c, pair := range [][2][]float32{{f.U, g.U}, {f.V, g.V}, {f.W, g.W}} {
		if e := maxAbsErr(pair[0], pair[1]); e > tau {
			t.Errorf("component %d error %v > tau", c, e)
		}
	}
}

func TestCPPreservation2DAllSpecs(t *testing.T) {
	f := smooth2D(3, 48, 40)
	tr, err := fixed.Fit(f.U, f.V)
	if err != nil {
		t.Fatal(err)
	}
	orig := cp.DetectField2D(f, tr)
	if len(orig) == 0 {
		t.Fatal("test field has no critical points")
	}
	for _, spec := range []Speculation{NoSpec, ST1, ST2, ST3, ST4} {
		blob, err := CompressField2D(f, tr, Options{Tau: 0.05, Spec: spec})
		if err != nil {
			t.Fatalf("%v: %v", spec, err)
		}
		g, err := Decompress2D(blob)
		if err != nil {
			t.Fatalf("%v: %v", spec, err)
		}
		dec := cp.DetectField2D(g, tr)
		rep := cp.Compare(orig, dec)
		if !rep.Preserved() {
			t.Errorf("%v: critical points not preserved: %v", spec, rep)
		}
		if rep.TP != len(orig) {
			t.Errorf("%v: TP=%d, want %d", spec, rep.TP, len(orig))
		}
	}
}

func TestCPPreservation3DAllSpecs(t *testing.T) {
	f := smooth3D(4, 14, 12, 10)
	tr, err := fixed.Fit(f.U, f.V, f.W)
	if err != nil {
		t.Fatal(err)
	}
	orig := cp.DetectField3D(f, tr)
	if len(orig) == 0 {
		t.Fatal("test field has no critical points")
	}
	for _, spec := range []Speculation{NoSpec, ST1, ST2, ST3, ST4} {
		blob, err := CompressField3D(f, tr, Options{Tau: 0.05, Spec: spec})
		if err != nil {
			t.Fatalf("%v: %v", spec, err)
		}
		g, err := Decompress3D(blob)
		if err != nil {
			t.Fatalf("%v: %v", spec, err)
		}
		rep := cp.Compare(orig, cp.DetectField3D(g, tr))
		if !rep.Preserved() {
			t.Errorf("%v: critical points not preserved: %v", spec, rep)
		}
	}
}

func TestSpeculationImprovesRatio(t *testing.T) {
	f := smooth2D(5, 64, 64)
	tr, _ := fixed.Fit(f.U, f.V)
	sizes := map[Speculation]int{}
	for _, spec := range []Speculation{NoSpec, ST2, ST4} {
		blob, err := CompressField2D(f, tr, Options{Tau: 0.01, Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		sizes[spec] = len(blob)
	}
	if sizes[ST4] > sizes[NoSpec] {
		t.Errorf("ST4 (%d bytes) should not exceed NoSpec (%d bytes)", sizes[ST4], sizes[NoSpec])
	}
}

func TestDeterministicCompression(t *testing.T) {
	f := smooth2D(6, 32, 32)
	a, _, err := Compress(f.Dims(), f.Components(), Options{Tau: 0.01, Spec: ST2})
	if err != nil {
		t.Fatal(err)
	}
	b, _, _ := Compress(f.Dims(), f.Components(), Options{Tau: 0.01, Spec: ST2})
	if !bytes.Equal(a, b) {
		t.Fatal("compression not deterministic")
	}
}

func TestEncoderDecompressedMatchesDecoder(t *testing.T) {
	f := smooth2D(7, 32, 24)
	tr, _ := fixed.Fit(f.U, f.V)
	enc, err := NewEncoder(block2D(f, tr, Options{Tau: 0.02}))
	if err != nil {
		t.Fatal(err)
	}
	enc.Run()
	d := enc.Decompressed()
	eu, ev := d[0], d[1]
	blob, err := enc.Finish()
	if err != nil {
		t.Fatal(err)
	}
	g, err := Decompress2D(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i := range eu {
		if eu[i] != g.U[i] || ev[i] != g.V[i] {
			t.Fatalf("in-process and decoded reconstructions diverge at %d", i)
		}
	}
}

func TestLosslessBorderBlock(t *testing.T) {
	f := smooth2D(8, 24, 20)
	tr, _ := fixed.Fit(f.U, f.V)
	b := block2D(f, tr, Options{Tau: 0.05})
	b.Neighbor = [6]bool{true, true, true, true}
	b.LosslessBorder = true
	enc, err := NewEncoder(b)
	if err != nil {
		t.Fatal(err)
	}
	enc.Run()
	blob, _ := enc.Finish()
	g, err := Decompress2D(blob)
	if err != nil {
		t.Fatal(err)
	}
	// Border vertices must be reconstructed to the exact fixed-point
	// values of the input.
	fx := make([]int64, len(f.U))
	gx := make([]int64, len(f.U))
	tr.ToFixed(f.U, fx)
	tr.ToFixed(g.U, gx)
	for j := 0; j < f.NY; j++ {
		for i := 0; i < f.NX; i++ {
			if i != 0 && i != f.NX-1 && j != 0 && j != f.NY-1 {
				continue
			}
			idx := j*f.NX + i
			if fx[idx] != gx[idx] {
				t.Fatalf("border vertex (%d,%d) not lossless", i, j)
			}
		}
	}
}

// TestTwoPhasePair wires two horizontally adjacent blocks through the
// ratio-oriented two-phase protocol by hand and checks global critical
// point preservation, including the border cells.
func TestTwoPhasePair(t *testing.T) {
	nx, ny := 40, 24
	f := smooth2D(9, nx, ny)
	tr, _ := fixed.Fit(f.U, f.V)
	orig := cp.DetectField2D(f, tr)
	if len(orig) == 0 {
		t.Fatal("no critical points in test field")
	}

	half := nx / 2
	sub := func(x0, w int) ([]float32, []float32) {
		u := make([]float32, w*ny)
		v := make([]float32, w*ny)
		for j := 0; j < ny; j++ {
			copy(u[j*w:], f.U[j*nx+x0:j*nx+x0+w])
			copy(v[j*w:], f.V[j*nx+x0:j*nx+x0+w])
		}
		return u, v
	}
	u0, v0 := sub(0, half)
	u1, v1 := sub(half, nx-half)

	opts := Options{Tau: 0.05, Spec: NoSpec}
	left, err := NewEncoder(Block{
		Dims: []int{half, ny}, Comps: [][]float32{u0, v0}, Transform: tr, Opts: opts,
		Origin: []int{0, 0}, Global: []int{nx, ny},
		Neighbor: [6]bool{false, true, false, false}, TwoPhase: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	right, err := NewEncoder(Block{
		Dims: []int{nx - half, ny}, Comps: [][]float32{u1, v1}, Transform: tr, Opts: opts,
		Origin: []int{half, 0}, Global: []int{nx, ny},
		Neighbor: [6]bool{true, false, false, false}, TwoPhase: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Phase-1 exchange: originals of the facing borders.
	if err := left.SetGhostPlane(SideMaxX, right.BorderPlane(SideMinX)); err != nil {
		t.Fatal(err)
	}
	if err := right.SetGhostPlane(SideMinX, left.BorderPlane(SideMaxX)); err != nil {
		t.Fatal(err)
	}
	left.Prepare()
	right.Prepare()
	left.RunPhase1()
	right.RunPhase1()

	// Phase-2 exchange: the right block's min-x column is now
	// decompressed; the left block needs it to finish its max column.
	if err := left.SetGhostPlane(SideMaxX, right.BorderPlane(SideMinX)); err != nil {
		t.Fatal(err)
	}
	left.RunPhase2()
	right.RunPhase2()

	lblob, err := left.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rblob, err := right.Finish()
	if err != nil {
		t.Fatal(err)
	}

	lf, err := Decompress2D(lblob)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := Decompress2D(rblob)
	if err != nil {
		t.Fatal(err)
	}

	// Reassemble and compare critical points globally.
	g := field.NewField2D(nx, ny)
	for j := 0; j < ny; j++ {
		copy(g.U[j*nx:], lf.U[j*half:(j+1)*half])
		copy(g.V[j*nx:], lf.V[j*half:(j+1)*half])
		copy(g.U[j*nx+half:], rf.U[j*(nx-half):(j+1)*(nx-half)])
		copy(g.V[j*nx+half:], rf.V[j*(nx-half):(j+1)*(nx-half)])
	}
	rep := cp.Compare(orig, cp.DetectField2D(g, tr))
	if !rep.Preserved() {
		t.Fatalf("two-phase pair broke critical points: %v", rep)
	}
	if e := maxAbsErr(f.U, g.U); e > 0.05 {
		t.Errorf("error bound violated across blocks: %v", e)
	}
}

func TestDecompressCorrupt(t *testing.T) {
	if _, err := Decompress2D([]byte{1, 2, 3}); err == nil {
		t.Error("garbage must fail")
	}
	f := smooth2D(10, 16, 16)
	blob, _, _ := Compress(f.Dims(), f.Components(), Options{Tau: 0.01})
	if _, err := Decompress3D(blob); err == nil {
		t.Error("decoding a 2D blob as 3D must fail")
	}
	ndim, nx, ny, _, err := PeekHeader(blob)
	if err != nil || ndim != 2 || nx != 16 || ny != 16 {
		t.Errorf("PeekHeader = %d %d %d %v", ndim, nx, ny, err)
	}
}

// TestCompressRejectsBadInput: an extent below two points and a
// non-positive τ are *fixed.DomainErrors naming the parameter, from
// NewEncoder and CompressLossless alike; a malformed Block is a plain
// error.
func TestCompressRejectsBadInput(t *testing.T) {
	tr := fixed.FromShift(10)
	comps := func(nc, n int) [][]float32 {
		out := make([][]float32, nc)
		for c := range out {
			out[c] = make([]float32, n)
		}
		return out
	}
	for _, tc := range []struct {
		name  string
		blk   Block
		param string
		value float64
	}{
		{"1x8", Block{Dims: []int{1, 8}, Comps: comps(2, 8), Transform: tr, Opts: Options{Tau: 1}}, "nx", 1},
		{"8x1", Block{Dims: []int{8, 1}, Comps: comps(2, 8), Transform: tr, Opts: Options{Tau: 1}}, "ny", 1},
		{"4x4x1", Block{Dims: []int{4, 4, 1}, Comps: comps(3, 16), Transform: tr, Opts: Options{Tau: 1}}, "nz", 1},
		{"tau=0", Block{Dims: []int{4, 4}, Comps: comps(2, 16), Transform: tr, Opts: Options{Tau: 0}}, "tau", 0},
		{"tau=-1", Block{Dims: []int{4, 4, 4}, Comps: comps(3, 64), Transform: tr, Opts: Options{Tau: -1}}, "tau", -1},
	} {
		_, err := NewEncoder(tc.blk)
		var de *fixed.DomainError
		if !errors.As(err, &de) || de.Param != tc.param || de.Value != tc.value {
			t.Errorf("%s: NewEncoder err = %v, want *fixed.DomainError for %s = %v", tc.name, err, tc.param, tc.value)
		} else if strings.Contains(err.Error(), "non-finite") || !strings.Contains(err.Error(), "out of domain") {
			t.Errorf("%s: finite value reported as %q", tc.name, err)
		}
		if tc.param == "tau" {
			continue
		}
		_, err = CompressLossless(tc.blk.Dims, tc.blk.Comps, tr)
		if !errors.As(err, &de) || de.Param != tc.param {
			t.Errorf("%s: CompressLossless err = %v, want *fixed.DomainError for %s", tc.name, err, tc.param)
		}
	}
	for _, tc := range []struct {
		name string
		blk  Block
	}{
		{"1 dim", Block{Dims: []int{16}, Comps: comps(1, 16)}},
		{"4 dims", Block{Dims: []int{2, 2, 2, 2}, Comps: comps(4, 16)}},
		{"3 comps in 2D", Block{Dims: []int{4, 4}, Comps: comps(3, 16)}},
		{"2 comps in 3D", Block{Dims: []int{4, 4, 4}, Comps: comps(2, 64)}},
		{"length mismatch", Block{Dims: []int{4, 4}, Comps: [][]float32{make([]float32, 3), make([]float32, 16)}}},
		{"Z neighbor in 2D", Block{Dims: []int{4, 4}, Comps: comps(2, 16), Neighbor: [6]bool{SideMaxZ: true}}},
		{"short Origin", Block{Dims: []int{4, 4, 4}, Comps: comps(3, 64), Origin: []int{0, 0}}},
		{"short Prev", Block{Dims: []int{4, 4}, Comps: comps(2, 16), Prev: comps(1, 16)}},
	} {
		tc.blk.Transform, tc.blk.Opts = tr, Options{Tau: 1}
		_, err := NewEncoder(tc.blk)
		var de *fixed.DomainError
		if err == nil || errors.As(err, &de) {
			t.Errorf("%s: err = %v, want a plain validation error", tc.name, err)
		}
	}
}

// visited lists the own coordinates of o's runs in order, failing t
// unless each run starts at the stream position where the last ended.
func visited(t *testing.T, o vertexOrder) [][3]int {
	t.Helper()
	var order [][3]int
	if err := o.allRuns(func(r orderRun) error {
		if r.pos != len(order) {
			return fmt.Errorf("run %+v starts at stream position %d, want %d", r, r.pos, len(order))
		}
		for oi := r.i0; oi < r.i1; oi++ {
			order = append(order, [3]int{oi, r.oj, r.ok})
		}
		return nil
	}); err != nil {
		t.Fatalf("%+v: %v", o, err)
	}
	return order
}

func TestVisitOrderCoversAllVertices(t *testing.T) {
	for _, twoPhase := range []bool{false, true} {
		order := visited(t, vertexOrder{nx: 5, ny: 4, nz: 1, twoPhase: twoPhase, maxPlane: [3]bool{true, true, false}})
		if len(order) != 20 {
			t.Fatalf("order covers %d vertices", len(order))
		}
		seen := map[[3]int]bool{}
		for _, v := range order {
			if seen[v] {
				t.Fatalf("vertex %v visited twice", v)
			}
			seen[v] = true
		}
	}
	o3 := visited(t, vertexOrder{nx: 3, ny: 3, nz: 3, twoPhase: true, maxPlane: [3]bool{true, false, true}})
	if len(o3) != 27 {
		t.Fatalf("3D order covers %d", len(o3))
	}
}

func TestTwoPhaseOrderPutsMaxPlanesLast(t *testing.T) {
	order := visited(t, vertexOrder{nx: 4, ny: 3, nz: 1, twoPhase: true, maxPlane: [3]bool{true, false, false}})
	// Vertices with i == 3 must all come after the others.
	phase2Started := false
	for _, v := range order {
		if v[0] == 3 {
			phase2Started = true
		} else if phase2Started {
			t.Fatalf("phase-1 vertex %v after phase 2 started", v)
		}
	}
}

// TestLowerNeighborsVisitedFirst is the invariant behind the mask-free
// predictLorenzo: in either order, with any combination of max planes,
// every in-range lower Lorenzo neighbor (offsets in {-1,0}^3) of every
// vertex is visited before the vertex, and every vertex exactly once.
func TestLowerNeighborsVisitedFirst(t *testing.T) {
	for nz := 1; nz <= 4; nz++ {
		for ny := 2; ny <= 4; ny++ {
			for nx := 2; nx <= 4; nx++ {
				for _, twoPhase := range []bool{false, true} {
					for planes := 0; planes < 8; planes++ {
						o := vertexOrder{nx: nx, ny: ny, nz: nz, twoPhase: twoPhase,
							maxPlane: [3]bool{planes&1 != 0, planes&2 != 0, planes&4 != 0}}
						checkLowerNeighborsFirst(t, o)
					}
				}
			}
		}
	}
}

func checkLowerNeighborsFirst(t *testing.T, o vertexOrder) {
	t.Helper()
	done := make([]bool, o.nx*o.ny*o.nz)
	count := 0
	for _, v := range visited(t, o) {
		oi, oj, ok := v[0], v[1], v[2]
		own := (ok*o.ny+oj)*o.nx + oi
		if done[own] {
			t.Fatalf("%+v: (%d,%d,%d) visited twice", o, oi, oj, ok)
		}
		for d := 1; d < 8; d++ {
			i, j, k := oi-d&1, oj-d>>1&1, ok-d>>2&1
			if i >= 0 && j >= 0 && k >= 0 && !done[(k*o.ny+j)*o.nx+i] {
				t.Fatalf("%+v: (%d,%d,%d) visited before its lower neighbor (%d,%d,%d)", o, oi, oj, ok, i, j, k)
			}
		}
		done[own] = true
		count++
	}
	if count != len(done) {
		t.Fatalf("%+v: visited %d of %d vertices", o, count, len(done))
	}
}

func BenchmarkCompress2DNoSpec(b *testing.B) {
	f := smooth2D(11, 64, 64)
	b.SetBytes(int64(len(f.U)+len(f.V)) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Compress(f.Dims(), f.Components(), Options{Tau: 0.01}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompress2DST4(b *testing.B) {
	f := smooth2D(12, 64, 64)
	b.SetBytes(int64(len(f.U)+len(f.V)) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Compress(f.Dims(), f.Components(), Options{Tau: 0.01, Spec: ST4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompress2D(b *testing.B) {
	f := smooth2D(13, 64, 64)
	blob, _, _ := Compress(f.Dims(), f.Components(), Options{Tau: 0.01})
	b.SetBytes(int64(len(f.U)+len(f.V)) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompress2D(blob); err != nil {
			b.Fatal(err)
		}
	}
}
