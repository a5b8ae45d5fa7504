package cp

import (
	"fmt"
	"slices"

	"repro/internal/field"
	"repro/internal/fixed"
	"repro/internal/safedim"
)

// Windowed critical point detection: identical output to
// Detect while holding only a bounded run of slow-axis planes
// in memory, which is how topozip verify checks fields larger than RAM.
//
// Windows chain with a one-plane overlap — window [s, e) is followed by
// [e-1, ...) — so the cells whose base plane lies in [s, e-1) partition
// the mesh exactly: every cell is tested once, by the one window that
// owns its base plane, and no deduplication is needed. Global vertex
// ids are fed to the detector's SoS hook and cell ids/positions are
// offset back to global coordinates, so degenerate tie-breaking and the
// reported points match the whole-field detector bit for bit.

// minDetectWindow is the smallest useful window: two planes hold one
// cell layer.
const minDetectWindow = 2

// DetectSource streams detection over a 2D or 3D source in windows of at
// most `window` slow-axis planes (<= 0 picks a default), returning the
// same points as Detect on the materialized field.
func DetectSource(src field.SlabSource, tr fixed.Transform, window int) ([]Point, error) {
	dims := src.Dims()
	nd := len(dims)
	if nd != 2 && nd != 3 {
		return nil, fmt.Errorf("cp: streaming detection needs a 2D or 3D source, got %d dims", nd)
	}
	nSlow := dims[nd-1]
	plane := safedim.MustProduct(dims[:nd-1]...)
	// Cells per slow-axis layer: 2 triangles per 2D square, 6 tetrahedra
	// per 3D cube.
	layerCells := 2 * (dims[0] - 1)
	if nd == 3 {
		layerCells = 6 * (dims[0] - 1) * (dims[1] - 1)
	}
	window = clampWindow(window, nSlow)
	wn := safedim.MustProduct(window, plane)
	comps := make([][]float32, nd)
	fx := make([][]int64, nd)
	for c := range comps {
		comps[c] = make([]float32, wn)
		fx[c] = make([]int64, wn)
	}
	var pts []Point
	for s := 0; ; {
		e := s + window
		if e > nSlow {
			e = nSlow
		}
		count := e - s
		if err := src.ReadPlanes(s, count, comps); err != nil {
			return nil, err
		}
		n := count * plane
		wfx := make([][]int64, nd)
		for c := range comps {
			wfx[c] = fx[c][:n]
			tr.ToFixed(comps[c][:n], wfx[c])
		}
		base := s * plane // capture for the SoS global-id hook
		wdims := append(slices.Clone(dims[:nd-1]), count)
		first := len(pts)
		pts = appendPoints(pts, wdims, wfx, tr.Scale, s, func(vtx int) int { return base + vtx })
		for i := first; i < len(pts); i++ {
			pts[i].Cell += s * layerCells // cells are slow-axis-major
		}
		if e == nSlow {
			return pts, nil
		}
		s = e - 1 // overlap one plane: the next window owns cells based at e-1
	}
}

func clampWindow(window, nSlow int) int {
	if window <= 0 {
		window = 64
	}
	if window < minDetectWindow {
		window = minDetectWindow
	}
	if window > nSlow {
		window = nSlow
	}
	return window
}
