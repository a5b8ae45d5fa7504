package analysis

import (
	"math"

	"repro/internal/cp"
	"repro/internal/field"
)

// Separatrices extract the skeleton of 2D vector field topology: the
// streamlines emanating from each saddle point along the eigenvector
// directions of its Jacobian (two unstable branches traced forward, two
// stable branches traced backward). Together with the critical points
// they form the topological graph whose preservation the compressor
// guarantees.

// Separatrix is one branch of the topological skeleton.
type Separatrix struct {
	// Saddle is the index of the originating saddle in the input points.
	Saddle int
	// Unstable is true for forward (outgoing) branches.
	Unstable bool
	// Line is the traced streamline.
	Line []Point3
}

// Separatrices traces all separatrix branches of the field's saddles.
// pts is the full critical point list (typically cp.Detect output);
// only saddles spawn branches.
func Separatrices(f *field.Field2D, pts []cp.Point, h float64, steps int) []Separatrix {
	var out []Separatrix
	for i, p := range pts {
		if p.Type != cp.TypeSaddle {
			continue
		}
		j, ok := jacobianAt(f, p.Pos[0], p.Pos[1])
		if !ok {
			continue
		}
		v1, v2, ok := eigenvectors2(j)
		if !ok {
			continue
		}
		// Offset the seeds slightly off the saddle so the trace escapes
		// the stagnation point.
		const off = 0.35
		for s := range [2]int{} {
			sign := float64(1 - 2*s)
			out = append(out, Separatrix{
				Saddle: i, Unstable: true,
				Line: TraceStreamline2D(f, p.Pos[0]+sign*off*v1[0], p.Pos[1]+sign*off*v1[1], h, steps),
			})
			out = append(out, Separatrix{
				Saddle: i, Unstable: false,
				Line: traceBackward2D(f, p.Pos[0]+sign*off*v2[0], p.Pos[1]+sign*off*v2[1], h, steps),
			})
		}
	}
	return out
}

// traceBackward2D integrates against the flow (the stable manifold).
func traceBackward2D(f *field.Field2D, x, y, h float64, steps int) []Point3 {
	return TraceStreamline2D(f, x, y, -h, steps)
}

// jacobianAt estimates the velocity Jacobian at a fractional position by
// central differences of the bilinear interpolant.
func jacobianAt(f *field.Field2D, x, y float64) ([2][2]float64, bool) {
	const d = 0.5
	if x < d || y < d || x > float64(f.NX-1)-d || y > float64(f.NY-1)-d {
		return [2][2]float64{}, false
	}
	uxp, vxp := f.Bilinear(x+d, y)
	uxm, vxm := f.Bilinear(x-d, y)
	uyp, vyp := f.Bilinear(x, y+d)
	uym, vym := f.Bilinear(x, y-d)
	return [2][2]float64{
		{(uxp - uxm) / (2 * d), (uyp - uym) / (2 * d)},
		{(vxp - vxm) / (2 * d), (vyp - vym) / (2 * d)},
	}, true
}

// eigenvectors2 returns unit eigenvectors of a 2×2 matrix with real
// eigenvalues, ordered (positive-λ direction, negative-λ direction).
// ok is false for complex or defective spectra.
func eigenvectors2(m [2][2]float64) (v1, v2 [2]float64, ok bool) {
	tr := m[0][0] + m[1][1]
	det := m[0][0]*m[1][1] - m[0][1]*m[1][0]
	disc := tr*tr - 4*det
	if disc <= 0 {
		return v1, v2, false
	}
	s := math.Sqrt(disc)
	l1 := (tr + s) / 2
	l2 := (tr - s) / 2
	v1, ok1 := eigvec(m, l1)
	v2, ok2 := eigvec(m, l2)
	return v1, v2, ok1 && ok2
}

func eigvec(m [2][2]float64, l float64) ([2]float64, bool) {
	// (m - lI) v = 0: take the larger row for stability.
	a, b := m[0][0]-l, m[0][1]
	c, d := m[1][0], m[1][1]-l
	var v [2]float64
	if math.Abs(a)+math.Abs(b) >= math.Abs(c)+math.Abs(d) {
		v = [2]float64{-b, a}
	} else {
		v = [2]float64{-d, c}
	}
	n := math.Hypot(v[0], v[1])
	if n < 1e-12 {
		return v, false
	}
	v[0] /= n
	v[1] /= n
	return v, true
}

// SkeletonDivergence compares two separatrix sets branch by branch (they
// must come from the same saddle list) and returns the mean pointwise
// divergence — the skeleton analogue of StreamlineDivergence.
func SkeletonDivergence(a, b []Separatrix) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return math.NaN()
	}
	la := make([][]Point3, len(a))
	lb := make([][]Point3, len(b))
	for i := range a {
		la[i] = a[i].Line
		lb[i] = b[i].Line
	}
	return StreamlineDivergence(la, lb)
}
