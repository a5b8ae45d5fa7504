package main

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/field"
)

// The SoS row of `cpbench pred`: the tie-only SoS entry points against
// the generic exact.SoSSign reference on real ties. The golden fields
// themselves hold few exact ties (Nek5000 none, Ocean only its land-mask
// rim); their round trips — the fields verify runs detection on — hold
// many, because quantization makes neighbouring vectors equal. So the
// ties are harvested from the decoded golden fields, over the same cell
// sample as the orientation rows, and thinned to a bounded sample.

type tie2 struct {
	m       [3][3]int64
	ids     [3]int
	replace int
}

type tie3 struct {
	m       [4][4]int64
	ids     [4]int
	replace int
}

// sosResult is the SoS row's measurement.
type sosResult struct {
	ties       int
	meanPlans  float64
	tieNs      float64 // ns per tie, tie path
	refNs      float64 // ns per tie, exact.SoSSign
	mismatches int     // ties where the two disagree (must be 0)
}

func (r sosResult) speedup() float64 {
	if r.tieNs <= 0 {
		return 0
	}
	return r.refNs / r.tieNs
}

// roundTrip returns the components of a field of dims compressed with
// spec and decoded again.
func roundTrip(dims []int, comps [][]float32, tau float64, spec core.Speculation) ([][]float32, error) {
	blob, _, err := core.Compress(dims, comps, core.Options{Tau: tau, Spec: spec})
	if err != nil {
		return nil, err
	}
	_, dec, err := core.Decompress(blob)
	return dec, err
}

// harvestTies2 collects every exactly-zero orientation predicate of the
// point-in-simplex test over every stride-th triangle, skipping the
// all-zero cells detection skips.
func harvestTies2(mesh field.Mesh2D, u, v []int64, stride int) []tie2 {
	var ties []tie2
	for c := 0; c < mesh.NumCells(); c += stride {
		vs := mesh.CellVertices(c)
		var m [3][3]int64
		zero := true
		for r, vi := range vs {
			m[r] = [3]int64{u[vi], v[vi], 1}
			zero = zero && u[vi] == 0 && v[vi] == 0
		}
		if zero {
			continue
		}
		for i := -1; i < 3; i++ {
			mr := m
			if i >= 0 {
				mr[i] = [3]int64{0, 0, 1}
			}
			if exact.Det3H(&mr) == 0 {
				ties = append(ties, tie2{m: mr, ids: vs, replace: i})
			}
		}
	}
	return ties
}

// harvestTies3 is harvestTies2 over tetrahedra.
func harvestTies3(mesh field.Mesh3D, u, v, w []int64, stride int) []tie3 {
	var ties []tie3
	for c := 0; c < mesh.NumCells(); c += stride {
		vs := mesh.CellVertices(c)
		var m [4][4]int64
		zero := true
		for r, vi := range vs {
			m[r] = [4]int64{u[vi], v[vi], w[vi], 1}
			zero = zero && u[vi] == 0 && v[vi] == 0 && w[vi] == 0
		}
		if zero {
			continue
		}
		for i := -1; i < 4; i++ {
			mr := m
			if i >= 0 {
				mr[i] = [4]int64{0, 0, 0, 1}
			}
			if exact.Det4H(&mr).IsZero() {
				ties = append(ties, tie3{m: mr, ids: vs, replace: i})
			}
		}
	}
	return ties
}

// thin returns at most limit elements of s, evenly strided: the generic
// SoSSign reference costs tens of microseconds per tie, so it is timed on
// a bounded sample.
func thin[T any](s []T, limit int) []T {
	if limit < 1 || len(s) <= limit {
		return s
	}
	step := (len(s) + limit - 1) / limit
	out := make([]T, 0, limit)
	for i := 0; i < len(s); i += step {
		out = append(out, s[i])
	}
	return out
}

// orientPert fills pert with the SoSSign perturbation indices of an n×n
// orientation matrix over vertex ids (entry (r,c) of a data column gets
// ids[r]*(n-1)+c; the ones column and the replaced row are exact).
func orientPert(pert [][]int, ids []int, replace int) {
	n := len(pert)
	for r := range pert {
		for c := range pert[r] {
			pert[r][c] = -1
			if r != replace && c < n-1 {
				pert[r][c] = ids[r]*(n-1) + c
			}
		}
	}
}

// measureSoS times the tie path and the SoSSign reference over the
// harvested ties (best of reps each) and checks that they agree.
func measureSoS(t2 []tie2, t3 []tie3, reps int) sosResult {
	res := sosResult{ties: len(t2) + len(t3)}
	if res.ties == 0 {
		return res
	}
	sink := 0
	tie := bestOf(reps, func() {
		for i := range t2 {
			t := &t2[i]
			sink += exact.SoSOrient2Tie(&t.m, &t.ids, t.replace)
		}
		for i := range t3 {
			t := &t3[i]
			sink += exact.SoSOrient3Tie(&t.m, &t.ids, t.replace)
		}
	})
	var pbuf [4][4]int
	var prow [4][]int
	ref := func(rows [][]int64, ids []int, replace int) int {
		n := len(rows)
		for r := 0; r < n; r++ {
			prow[r] = pbuf[r][:n]
		}
		orientPert(prow[:n], ids, replace)
		return exact.SoSSign(rows, prow[:n])
	}
	refSigns := make([]int, res.ties)
	refd := bestOf(reps, func() {
		for i := range t2 {
			t := &t2[i]
			refSigns[i] = ref([][]int64{t.m[0][:], t.m[1][:], t.m[2][:]}, t.ids[:], t.replace)
		}
		for i := range t3 {
			t := &t3[i]
			refSigns[len(t2)+i] = ref([][]int64{t.m[0][:], t.m[1][:], t.m[2][:], t.m[3][:]}, t.ids[:], t.replace)
		}
	})
	plans := 0
	for i := range t2 {
		t := &t2[i]
		s, p := exact.SoSOrient2TiePlans(&t.m, &t.ids, t.replace)
		plans += p
		if s != refSigns[i] {
			res.mismatches++
		}
	}
	for i := range t3 {
		t := &t3[i]
		s, p := exact.SoSOrient3TiePlans(&t.m, &t.ids, t.replace)
		plans += p
		if s != refSigns[len(t2)+i] {
			res.mismatches++
		}
	}
	_ = sink
	res.meanPlans = float64(plans) / float64(res.ties)
	res.tieNs = float64(tie.Nanoseconds()) / float64(res.ties)
	res.refNs = float64(refd.Nanoseconds()) / float64(res.ties)
	return res
}

// printSoS writes the SoS row.
func printSoS(w io.Writer, r sosResult, n2, n3 int) {
	fmt.Fprintf(w, "sos:     tie %.1f ns/tie, reference %.1f ns/tie, speedup %.2fx, ties %d (ocean %d, nek %d), mean plans/tie %.2f, mismatches %d\n",
		r.tieNs, r.refNs, r.speedup(), r.ties, n2, n3, r.meanPlans, r.mismatches)
}
