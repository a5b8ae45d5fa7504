package analysis

import (
	"fmt"
	"math"

	"repro/internal/cp"
	"repro/internal/field"
	"repro/internal/fixed"
	"repro/internal/safedim"
)

// Fidelity is the outcome of a verify pass: the critical-point comparison
// and the pointwise error of a decoded field against its original.
type Fidelity struct {
	Report      cp.Report
	MaxAbsError float64
	PSNR        float64
}

// Verify compares a decoded field with its original, both exposed as
// slab sources: it fits the transform on the original's range, detects
// critical points on both fields under it (the paper's preservation
// criterion is exact agreement cell by cell), and computes the error
// metrics. scanWindow bounds the planes of the stats and error scans and
// detectWindow those of the detection windows (<= 0 picks defaults), so
// peak memory follows the windows, never the field. topozip verify and
// topozipd's /v1/verify both run it.
func Verify(orig, dec field.SlabSource, scanWindow, detectWindow int) (Fidelity, error) {
	stats, err := field.SourceStats(orig, scanWindow)
	if err != nil {
		return Fidelity{}, err
	}
	tr := fixed.FromMaxAbs(stats.MaxAbs)
	op, err := cp.DetectSource(orig, tr, detectWindow)
	if err != nil {
		return Fidelity{}, err
	}
	dp, err := cp.DetectSource(dec, tr, detectWindow)
	if err != nil {
		return Fidelity{}, err
	}
	maxErr, psnr, err := SourceError(orig, dec, scanWindow)
	if err != nil {
		return Fidelity{}, err
	}
	return Fidelity{Report: cp.Compare(op, dp), MaxAbsError: maxErr, PSNR: psnr}, nil
}

// SourceError computes MaxAbsError and PSNR between two fields exposed
// as slab sources, scanning both in runs of at most window planes
// (window <= 0 picks a default) so peak memory is O(window), never
// O(field). The accumulation mirrors PSNR/MaxAbsError exactly — same
// float64 folds, same global-range peak — so the streaming and
// in-memory verify paths report identical numbers.
func SourceError(orig, dec field.SlabSource, window int) (maxErr, psnr float64, err error) {
	od, dd := orig.Dims(), dec.Dims()
	if len(od) != len(dd) {
		return 0, 0, fmt.Errorf("analysis: source dims %v vs %v", od, dd)
	}
	for i := range od {
		if od[i] != dd[i] {
			return 0, 0, fmt.Errorf("analysis: source dims %v vs %v", od, dd)
		}
	}
	nc := len(od)
	nSlow := od[nc-1]
	ps := 1
	for _, d := range od[:nc-1] {
		ps *= d
	}
	if window <= 0 {
		window = 64
	}
	if window > nSlow {
		window = nSlow
	}
	oc := make([][]float32, nc)
	dc := make([][]float32, nc)
	wn := safedim.MustProduct(window, ps)
	for c := 0; c < nc; c++ {
		oc[c] = make([]float32, wn)
		dc[c] = make([]float32, wn)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	var sum float64
	n := 0
	for start := 0; start < nSlow; start += window {
		count := window
		if start+count > nSlow {
			count = nSlow - start
		}
		if err := orig.ReadPlanes(start, count, oc); err != nil {
			return 0, 0, err
		}
		if err := dec.ReadPlanes(start, count, dc); err != nil {
			return 0, 0, err
		}
		for c := 0; c < nc; c++ {
			o, g := oc[c][:count*ps], dc[c][:count*ps]
			for i := range o {
				v := float64(o[i])
				lo = math.Min(lo, v)
				hi = math.Max(hi, v)
				d := v - float64(g[i])
				sum += d * d
				if a := math.Abs(d); a > maxErr {
					maxErr = a
				}
				n++
			}
		}
	}
	if n == 0 || hi <= lo {
		return maxErr, math.Inf(1), nil
	}
	rmse := math.Sqrt(sum / float64(n))
	if rmse == 0 {
		return maxErr, math.Inf(1), nil
	}
	return maxErr, 20 * math.Log10((hi-lo)/rmse), nil
}
