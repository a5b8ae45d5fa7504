package analysis

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/cp"
	"repro/internal/datagen"
	"repro/internal/field"
	"repro/internal/fixed"
)

// saddleBetweenVortices builds a field with two co-rotating vortices and
// a saddle between them, where their flows meet head on: separatrices
// connect the saddle toward the vortices' neighbourhoods. (Two
// counter-rotating vortices flow the same way between them, and leave no
// saddle there.)
func saddleBetweenVortices(n int) *field.Field2D {
	f := field.NewField2D(n, n)
	c1x, c1y := float64(n)/4, float64(n)/2
	c2x, c2y := 3*float64(n)/4, float64(n)/2
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			x, y := float64(i), float64(j)
			var u, v float64
			for _, c := range [][2]float64{{c1x, c1y}, {c2x, c2y}} {
				dx, dy := x-c[0], y-c[1]
				g := math.Exp(-(dx*dx + dy*dy) / float64(n))
				u += -dy * g
				v += dx * g
			}
			idx := f.Idx(i, j)
			f.U[idx] = float32(u)
			f.V[idx] = float32(v)
		}
	}
	return f
}

func TestBuildTopologyGraph(t *testing.T) {
	f := saddleBetweenVortices(48)
	tr, err := fixed.Fit(f.U, f.V)
	if err != nil {
		t.Fatal(err)
	}
	pts := cp.DetectField2D(f, tr)
	hasSaddle := false
	for _, p := range pts {
		if p.Type == cp.TypeSaddle {
			hasSaddle = true
		}
	}
	if !hasSaddle {
		t.Fatal("the field between the vortices has no saddle")
	}
	g := BuildTopologyGraph(f, pts, 3)
	if len(g.Nodes) != len(pts) {
		t.Errorf("node count %d", len(g.Nodes))
	}
	if len(g.Edges)+g.Dangling == 0 {
		t.Error("saddle produced no branches at all")
	}
	// Edges are sorted and reference existing cells.
	cells := map[int]bool{}
	for _, p := range pts {
		cells[p.Cell] = true
	}
	for i, e := range g.Edges {
		if !cells[e.FromCell] || !cells[e.ToCell] {
			t.Errorf("edge %d references unknown cells: %+v", i, e)
		}
		if i > 0 && g.Edges[i-1].FromCell > e.FromCell {
			t.Error("edges not sorted")
		}
	}
}

func TestSameTopologyUnderCompression(t *testing.T) {
	f := datagen.Ocean(128, 96)
	tr, err := fixed.Fit(f.U, f.V)
	if err != nil {
		t.Fatal(err)
	}
	pts := cp.DetectField2D(f, tr)
	a := BuildTopologyGraph(f, pts, 3)

	blob, err := core.CompressField2D(f, tr, core.Options{Tau: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := core.Decompress2D(blob)
	if err != nil {
		t.Fatal(err)
	}
	decPts := cp.DetectField2D(dec, tr)
	b := BuildTopologyGraph(dec, decPts, 3)
	// Node sets must match exactly (that is the compressor's guarantee);
	// edge sets can differ slightly because separatrix integration is a
	// numerical process, so assert a high overlap instead.
	if len(a.Nodes) != len(b.Nodes) {
		t.Fatalf("node counts differ: %d vs %d", len(a.Nodes), len(b.Nodes))
	}
	overlap := edgeOverlap(a.Edges, b.Edges)
	if overlap < 0.8 {
		t.Errorf("edge overlap %.2f too low (%d vs %d edges)", overlap, len(a.Edges), len(b.Edges))
	}
}

func edgeOverlap(a, b []GraphEdge) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	set := map[GraphEdge]int{}
	for _, e := range a {
		set[e]++
	}
	common := 0
	for _, e := range b {
		if set[e] > 0 {
			set[e]--
			common++
		}
	}
	total := len(a)
	if len(b) > total {
		total = len(b)
	}
	return float64(common) / float64(total)
}

func TestSameTopologyDetectsDifferences(t *testing.T) {
	g1 := TopologyGraph{
		Nodes: []cp.Point{{Cell: 1, Type: cp.TypeSaddle}},
		Edges: []GraphEdge{{FromCell: 1, ToCell: 2, Unstable: true}},
	}
	g2 := TopologyGraph{
		Nodes: []cp.Point{{Cell: 1, Type: cp.TypeSaddle}},
		Edges: []GraphEdge{{FromCell: 1, ToCell: 3, Unstable: true}},
	}
	if SameTopology(g1, g2) {
		t.Error("different edges must not compare equal")
	}
	if !SameTopology(g1, g1) {
		t.Error("identity must hold")
	}
	g3 := g1
	g3.Nodes = []cp.Point{{Cell: 1, Type: cp.TypeCenter}}
	if SameTopology(g1, g3) {
		t.Error("type change must be detected")
	}
}
