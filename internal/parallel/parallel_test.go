package parallel

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/cp"
	"repro/internal/field"
	"repro/internal/fixed"
	"repro/internal/mpi"
)

func smooth2D(seed int64, nx, ny int) *field.Field2D {
	rng := rand.New(rand.NewSource(seed))
	f := field.NewField2D(nx, ny)
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
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			var u, v float64
			for _, m := range modes {
				u += m.amp * math.Sin(m.ax*float64(i)+m.px) * math.Cos(m.ay*float64(j)+m.py)
				v += m.amp * math.Cos(m.ax*float64(i)+m.py) * math.Sin(m.ay*float64(j)+m.px)
			}
			f.U[f.Idx(i, j)] = float32(u)
			f.V[f.Idx(i, j)] = float32(v)
		}
	}
	return f
}

func smooth3D(seed int64, n int) *field.Field3D {
	rng := rand.New(rand.NewSource(seed))
	f := field.NewField3D(n, n, n)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				x := 4 * math.Pi * float64(i) / float64(n)
				y := 4 * math.Pi * float64(j) / float64(n)
				z := 4 * math.Pi * float64(k) / float64(n)
				idx := f.Idx(i, j, k)
				f.U[idx] = float32(math.Sin(x)*math.Cos(y) + rng.NormFloat64()*1e-3)
				f.V[idx] = float32(math.Cos(y)*math.Sin(z) + rng.NormFloat64()*1e-3)
				f.W[idx] = float32(math.Sin(z)*math.Cos(x) + rng.NormFloat64()*1e-3)
			}
		}
	}
	return f
}

func TestPartition(t *testing.T) {
	spans, err := Partition(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range spans {
		total += s.Size
		if s.Size < 2 {
			t.Errorf("span too small: %+v", s)
		}
	}
	if total != 10 {
		t.Errorf("spans cover %d", total)
	}
	if spans[0].Start != 0 || spans[2].Start+spans[2].Size != 10 {
		t.Errorf("bad coverage: %+v", spans)
	}
	if _, err := Partition(3, 2); err == nil {
		t.Error("too-small partition must fail")
	}
}

func TestStrategyString(t *testing.T) {
	if Naive.String() != "naive" || LosslessBorders.String() != "lossless-borders" || RatioOriented.String() != "ratio-oriented" {
		t.Error("strategy names")
	}
}

func runStrategy2D(t *testing.T, f *field.Field2D, grid []int, strat Strategy, spec core.Speculation) (cp.Report, Result) {
	t.Helper()
	tr, err := fixed.Fit(f.Components()...)
	if err != nil {
		t.Fatal(err)
	}
	orig := cp.DetectField2D(f, tr)
	res, err := CompressDistributed(f.Dims(), f.Components(), grid, tr,
		core.Options{Tau: 0.05, Spec: spec}, strat, mpi.Config{})
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := DecompressDistributed(res.Blobs, f.Dims(), grid, mpi.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return cp.Compare(orig, cp.Detect(f.Dims(), g, tr)), res
}

func TestLosslessBordersPreserves2D(t *testing.T) {
	f := smooth2D(1, 48, 40)
	rep, res := runStrategy2D(t, f, []int{2, 2}, LosslessBorders, core.NoSpec)
	if !rep.Preserved() {
		t.Errorf("lossless borders broke critical points: %v", rep)
	}
	if res.Stats.Messages != 0 {
		t.Errorf("lossless borders should not communicate, sent %d messages", res.Stats.Messages)
	}
}

func TestRatioOrientedPreserves2D(t *testing.T) {
	f := smooth2D(2, 48, 40)
	rep, res := runStrategy2D(t, f, []int{2, 2}, RatioOriented, core.NoSpec)
	if !rep.Preserved() {
		t.Errorf("ratio-oriented broke critical points: %v", rep)
	}
	if res.Stats.Messages == 0 {
		t.Error("ratio-oriented must exchange ghosts")
	}
}

func TestRatioOrientedPreserves2DWithSpeculation(t *testing.T) {
	f := smooth2D(3, 48, 40)
	for _, spec := range []core.Speculation{core.ST2, core.ST4} {
		rep, _ := runStrategy2D(t, f, []int{2, 2}, RatioOriented, spec)
		if !rep.Preserved() {
			t.Errorf("%v: ratio-oriented broke critical points: %v", spec, rep)
		}
	}
}

func TestLosslessBordersPreservesWithSpeculation(t *testing.T) {
	f := smooth2D(4, 48, 40)
	rep, _ := runStrategy2D(t, f, []int{2, 2}, LosslessBorders, core.ST4)
	if !rep.Preserved() {
		t.Errorf("ST4 lossless borders broke critical points: %v", rep)
	}
}

func TestNaiveBreaksBorderCells2D(t *testing.T) {
	// The motivating failure: with enough ranks the naive strategy
	// produces false cases in border cells (Table II). We only assert
	// that preservation *may* fail, never that interior points break:
	// every false case must touch a rank boundary.
	f := smooth2D(5, 48, 40)
	tr, _ := fixed.Fit(f.Components()...)
	orig := cp.DetectField2D(f, tr)
	res, err := CompressDistributed(f.Dims(), f.Components(), []int{4, 4}, tr,
		core.Options{Tau: 0.05, Spec: core.NoSpec}, Naive, mpi.Config{})
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := DecompressDistributed(res.Blobs, f.Dims(), []int{4, 4}, mpi.Config{})
	if err != nil {
		t.Fatal(err)
	}
	dec := cp.Detect(f.Dims(), g, tr)
	om := map[int]cp.Type{}
	for _, p := range orig {
		om[p.Cell] = p.Type
	}
	mesh := field.Mesh2D{NX: f.NX, NY: f.NY}
	xs, _ := Partition(f.NX, 4)
	ys, _ := Partition(f.NY, 4)
	onBorder := func(c int) bool {
		for _, v := range mesh.CellVertices(c) {
			i, j := mesh.VertexPos(v)
			for _, s := range xs[:3] {
				if i == s.Start+s.Size-1 || i == s.Start+s.Size {
					return true
				}
			}
			for _, s := range ys[:3] {
				if j == s.Start+s.Size-1 || j == s.Start+s.Size {
					return true
				}
			}
		}
		return false
	}
	for _, p := range dec {
		if _, ok := om[p.Cell]; !ok && !onBorder(p.Cell) {
			t.Errorf("naive produced an interior false positive in cell %d", p.Cell)
		}
	}
}

func TestRatioOrientedBeatsLosslessBordersRatio(t *testing.T) {
	f := smooth2D(6, 64, 64)
	_, resLB := runStrategy2D(t, f, []int{4, 4}, LosslessBorders, core.NoSpec)
	_, resRO := runStrategy2D(t, f, []int{4, 4}, RatioOriented, core.NoSpec)
	if resRO.Ratio() <= resLB.Ratio() {
		t.Errorf("ratio-oriented (%.2f) should beat lossless borders (%.2f)",
			resRO.Ratio(), resLB.Ratio())
	}
}

func TestDistributed3DPreservation(t *testing.T) {
	f := smooth3D(7, 16)
	tr, err := fixed.Fit(f.Components()...)
	if err != nil {
		t.Fatal(err)
	}
	orig := cp.DetectField3D(f, tr)
	if len(orig) == 0 {
		t.Fatal("no critical points in 3D test field")
	}
	for _, strat := range []Strategy{LosslessBorders, RatioOriented} {
		res, err := CompressDistributed(f.Dims(), f.Components(), []int{2, 2, 2}, tr,
			core.Options{Tau: 0.05}, strat, mpi.Config{})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		g, _, err := DecompressDistributed(res.Blobs, []int{16, 16, 16}, []int{2, 2, 2}, mpi.Config{})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		rep := cp.Compare(orig, cp.Detect(f.Dims(), g, tr))
		if !rep.Preserved() {
			t.Errorf("%v: 3D distributed run broke critical points: %v", strat, rep)
		}
	}
}

func TestErrorBoundHolds2DDistributed(t *testing.T) {
	f := smooth2D(8, 48, 40)
	tr, _ := fixed.Fit(f.Components()...)
	res, err := CompressDistributed(f.Dims(), f.Components(), []int{2, 2}, tr,
		core.Options{Tau: 0.02}, RatioOriented, mpi.Config{})
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := DecompressDistributed(res.Blobs, f.Dims(), []int{2, 2}, mpi.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.U {
		if math.Abs(float64(f.U[i])-float64(g[0][i])) > 0.02 {
			t.Fatalf("error bound violated at %d", i)
		}
	}
}

// TestSingleRankMatchesSingleNode: a lone rank is the whole domain
// under every strategy, so a field of two pieces' worth of vertices
// sweeps in pieces as core.CompressBlock does, to the same bytes.
func TestSingleRankMatchesSingleNode(t *testing.T) {
	f := smooth2D(9, 256, 128) // 32 Ki vertices: two pieces
	tr, _ := fixed.Fit(f.Components()...)
	opts := core.Options{Tau: 0.01}
	single, _, err := core.CompressBlock(core.Block{Dims: f.Dims(), Comps: f.Components(), Transform: tr, Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []Strategy{Naive, LosslessBorders, RatioOriented} {
		res, err := CompressDistributed(f.Dims(), f.Components(), []int{1, 1}, tr, opts, strat, mpi.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Blobs[0], single) {
			t.Errorf("%v: the 1-rank block differs from core.CompressBlock's", strat)
		}
	}
}

func TestResultAccessors(t *testing.T) {
	r := Result{RawBytes: 100, CompressedBytes: 10}
	if r.Ratio() != 10 {
		t.Errorf("Ratio = %v", r.Ratio())
	}
	if (Result{}).Ratio() != 0 {
		t.Error("empty result ratio should be 0")
	}
	if (Result{}).ThroughputMBps() != 0 {
		t.Error("empty result throughput should be 0")
	}
}
