package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/cp"
	"repro/internal/datagen"
	"repro/internal/derive"
	"repro/internal/exact"
	"repro/internal/exact/filter"
	"repro/internal/field"
	"repro/internal/fixed"
)

// runPred is the `cpbench pred` subcommand: the predicate microbench.
// It measures the filtered sign-of-determinant and Ψ-derivation
// predicates against their unfiltered exact references on the Ocean and
// Nek5000 golden fields, reports the certification rates from the
// filter counters, and with -gate fails when the fallback rate on this
// corpus exceeds the pinned threshold or the filtered path loses its
// speed edge (see scripts/predgate.sh and `make predgate`).
func runPred(args []string, w io.Writer) (failed bool, err error) {
	fs := flag.NewFlagSet("pred", flag.ContinueOnError)
	ocean := fs.String("ocean", "384x288", "Ocean dims (NXxNY)")
	nek := fs.Int("nek", 64, "Nek5000 cube side")
	tauRel := fs.Float64("tau", 0.01, "range-relative error bound for the Ψ cap")
	reps := fs.Int("count", 3, "repetitions per measurement (best-of)")
	samples := fs.Int("samples", 200000, "matrix/derivation sample cap per predicate")
	gate := fs.Bool("gate", false, "exit nonzero when a gate threshold is violated")
	maxFallback := fs.Float64("max-fallback", 0.05, "gate: max 3D orientation exact-fallback rate on the sweep corpus")
	minPsiCert := fs.Float64("min-psi-cert", 0.50, "gate: min Ψ certification rate on the derivation corpus")
	minSpeedup := fs.Float64("min-speedup", 1.5, "gate: min speedup over the reference (3D orientation, SoS ties)")
	// The Ψ-derivation speedup sits nearer its threshold than orient3
	// (~1.5x typical vs ~5x), so its gate gets noise headroom: the CI
	// threshold is set ~10% under the typical measurement, and the
	// typical value is what DESIGN.md and the PR benchmarks record.
	minPsiSpeedup := fs.Float64("min-psi-speedup", 1.35, "gate: min filtered-vs-reference speedup (Ψ derivation)")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	var onx, ony int
	if _, err := fmt.Sscanf(*ocean, "%dx%d", &onx, &ony); err != nil {
		return false, fmt.Errorf("bad -ocean: %w", err)
	}

	// Golden fields, fixed-pointed exactly like the compressor does.
	f2 := datagen.Ocean(onx, ony)
	tr2, err := fixed.Fit(f2.U, f2.V)
	if err != nil {
		return false, err
	}
	u2 := make([]int64, len(f2.U))
	v2 := make([]int64, len(f2.V))
	tr2.ToFixed(f2.U, u2)
	tr2.ToFixed(f2.V, v2)
	m2 := field.Mesh2D{NX: f2.NX, NY: f2.NY}
	d2 := &cp.Detector{Dims: f2.Dims(), Comps: [][]int64{u2, v2}}

	n := *nek
	f3 := datagen.Nek5000(n, n, n)
	tr3, err := fixed.Fit(f3.U, f3.V, f3.W)
	if err != nil {
		return false, err
	}
	u3 := make([]int64, len(f3.U))
	v3 := make([]int64, len(f3.V))
	w3 := make([]int64, len(f3.W))
	tr3.ToFixed(f3.U, u3)
	tr3.ToFixed(f3.V, v3)
	tr3.ToFixed(f3.W, w3)
	m3 := field.Mesh3D{NX: n, NY: n, NZ: n}
	d3 := &cp.Detector{Dims: f3.Dims(), Comps: [][]int64{u3, v3, w3}}

	fmt.Fprintf(w, "pred: ocean %dx%d (%d tris), nek %d^3 (%d tets), tau %g\n",
		onx, ony, m2.NumCells(), n, m3.NumCells(), *tauRel)

	// Harvest predicate inputs: the full-simplex orientation matrices of
	// a cell sample, exactly as detection builds them.
	stride2 := m2.NumCells() / *samples
	if stride2 < 1 {
		stride2 = 1
	}
	var mats2 [][3][3]int64
	for c := 0; c < m2.NumCells(); c += stride2 {
		vs := m2.CellVertices(c)
		var m [3][3]int64
		for r, vi := range vs {
			m[r] = [3]int64{u2[vi], v2[vi], 1}
		}
		mats2 = append(mats2, m)
	}
	stride3 := m3.NumCells() / *samples
	if stride3 < 1 {
		stride3 = 1
	}
	var mats3 [][4][4]int64
	var tets [][4]int // vertex ids, for the Ψ derivation sample
	for c := 0; c < m3.NumCells(); c += stride3 {
		vs := m3.CellVertices(c)
		var m [4][4]int64
		for r, vi := range vs {
			m[r] = [4]int64{u3[vi], v3[vi], w3[vi], 1}
		}
		mats3 = append(mats3, m)
		tets = append(tets, vs)
	}

	// 2D orientation: filtered (exact int64 translation) vs Int128. The
	// filtered loops batch their counters in a Local exactly like the
	// production sweeps, flushing once per pass.
	sink := 0
	var loc filter.Local
	filt2 := bestOf(*reps, func() {
		for i := range mats2 {
			sink += loc.Orient2Sign(&mats2[i])
		}
		loc.Flush()
	})
	ref2 := bestOf(*reps, func() {
		for i := range mats2 {
			//lint:ignore floatflow reference baseline for the predicate microbenchmark
			sink += exact.Det3(&mats2[i]).Sign()
		}
	})
	fmt.Fprintf(w, "orient2: filtered %s, reference %s, speedup %.2fx\n",
		rate(len(mats2), filt2), rate(len(mats2), ref2), speedup(ref2, filt2))

	// 3D orientation: float-filtered vs Int128.
	o3Before := filter.Stats()
	filt3 := bestOf(*reps, func() {
		for i := range mats3 {
			sink += loc.Orient3Sign(&mats3[i])
		}
		loc.Flush()
	})
	o3 := filter.Stats().Sub(o3Before)
	ref3 := bestOf(*reps, func() {
		for i := range mats3 {
			//lint:ignore floatflow reference baseline for the predicate microbenchmark
			sink += exact.Det4(&mats3[i]).Sign()
		}
	})
	o3Speedup := speedup(ref3, filt3)
	fmt.Fprintf(w, "orient3: filtered %s, reference %s, speedup %.2fx, accept %.2f%% (static %d, run %d, zero %d, exact %d)\n",
		rate(len(mats3), filt3), rate(len(mats3), ref3), o3Speedup,
		100*o3.Orient3AcceptRate(), o3.Orient3Static, o3.Orient3Run, o3.Orient3Zero, o3.Orient3Exact)

	// Ψ derivation: capped+filtered vs the Int128 reference, with the
	// production cap (the fixed-point τ′) so the filter sees the same
	// quotient checks the compressor issues.
	tau3 := tr3.Bound(*tauRel * field.Range(f3.U, f3.V, f3.W))
	psiBefore := filter.Stats()
	var psiAcc int64
	filtPsi := bestOf(*reps, func() {
		for i := range tets {
			vs := &tets[i]
			psiAcc += derive.Psi3D(u3, v3, w3, vs[0], vs[1], vs[2], vs[3], tau3, &loc)
		}
		loc.Flush()
	})
	psi := filter.Stats().Sub(psiBefore)
	refPsi := bestOf(*reps, func() {
		for i := range tets {
			vs := &tets[i]
			p := derive.Psi3DReference(u3, v3, w3, vs[0], vs[1], vs[2], vs[3])
			if p > tau3 {
				p = tau3
			}
			psiAcc += p
		}
	})
	psiSpeedup := speedup(refPsi, filtPsi)
	fmt.Fprintf(w, "psi3:    filtered %s, reference %s, speedup %.2fx, cert %.2f%% (%d of %d)\n",
		rate(len(tets), filtPsi), rate(len(tets), refPsi), psiSpeedup,
		100*psi.PsiCertRate(), psi.PsiCert, psi.PsiCert+psi.PsiFallback)

	// Whole-field sweeps: the cache-blocked batched detection the
	// compressor and verifier actually run, with its certification rates
	// on the full golden corpus (SoS-replaced predicates included).
	swBefore := filter.Stats()
	sweep2 := bestOf(*reps, func() { sink += len(d2.DetectCells()) })
	sweep3 := bestOf(*reps, func() { sink += len(d3.DetectCells()) })
	sw := filter.Stats().Sub(swBefore)
	// Share of cells the sign prefilter decides before any predicate,
	// counted here over the corpus rather than on the sweep's hot path.
	signed2, signed3 := 0, 0
	for c := 0; c < m2.NumCells(); c++ {
		if d2.SignDecided(c) {
			signed2++
		}
	}
	for c := 0; c < m3.NumCells(); c++ {
		if d3.SignDecided(c) {
			signed3++
		}
	}
	fmt.Fprintf(w, "detect:  ocean %s, nek %s, sign-decided %.2f%% / %.2f%%, sweep accept %.2f%% (exact fallbacks %d of %d)\n",
		rate(m2.NumCells(), sweep2), rate(m3.NumCells(), sweep3),
		100*float64(signed2)/float64(m2.NumCells()), 100*float64(signed3)/float64(m3.NumCells()),
		100*sw.Orient3AcceptRate(), sw.Orient3Exact, sw.Orient3Calls())
	_ = sink
	_ = psiAcc

	// SoS ties on the decoded golden fields (see sos.go): Ocean NoSpec and
	// Nek ST4 round trips, harvested over the same cell strides as the
	// orientation rows.
	dec2, err := roundTrip(f2.Dims(), f2.Components(), *tauRel*field.Range(f2.U, f2.V), core.NoSpec)
	if err != nil {
		return false, err
	}
	dec3, err := roundTrip(f3.Dims(), f3.Components(), *tauRel*field.Range(f3.U, f3.V, f3.W), core.ST4)
	if err != nil {
		return false, err
	}
	du2, dv2 := make([]int64, len(u2)), make([]int64, len(v2))
	tr2.ToFixed(dec2[0], du2)
	tr2.ToFixed(dec2[1], dv2)
	du3, dv3, dw3 := make([]int64, len(u3)), make([]int64, len(v3)), make([]int64, len(w3))
	tr3.ToFixed(dec3[0], du3)
	tr3.ToFixed(dec3[1], dv3)
	tr3.ToFixed(dec3[2], dw3)
	tieCap := *samples / 20
	ties2 := thin(harvestTies2(m2, du2, dv2, stride2), tieCap)
	ties3 := thin(harvestTies3(m3, du3, dv3, dw3, stride3), tieCap)
	//lint:ignore floatflow the ties come from tr.ToFixed of the decoded fields; the taint is τ parameterizing the round trip, not a float reaching a predicate
	sos := measureSoS(ties2, ties3, *reps)
	printSoS(w, sos, len(ties2), len(ties3))

	fallback := 1 - sw.Orient3AcceptRate()
	ok := true
	if fallback > *maxFallback {
		fmt.Fprintf(w, "gate: FAIL orient3 fallback rate %.4f > %.4f\n", fallback, *maxFallback)
		ok = false
	}
	if psi.PsiCertRate() < *minPsiCert {
		fmt.Fprintf(w, "gate: FAIL psi certification rate %.4f < %.4f\n", psi.PsiCertRate(), *minPsiCert)
		ok = false
	}
	if o3Speedup < *minSpeedup {
		fmt.Fprintf(w, "gate: FAIL orient3 speedup %.2fx < %.2fx\n", o3Speedup, *minSpeedup)
		ok = false
	}
	if sos.mismatches > 0 {
		fmt.Fprintf(w, "gate: FAIL sos tie path disagrees with SoSSign on %d of %d ties\n", sos.mismatches, sos.ties)
		ok = false
	}
	if sos.ties > 0 && sos.speedup() < *minSpeedup {
		fmt.Fprintf(w, "gate: FAIL sos speedup %.2fx < %.2fx\n", sos.speedup(), *minSpeedup)
		ok = false
	}
	if psiSpeedup < *minPsiSpeedup {
		fmt.Fprintf(w, "gate: FAIL psi speedup %.2fx < %.2fx\n", psiSpeedup, *minPsiSpeedup)
		ok = false
	}
	if ok {
		fmt.Fprintf(w, "gate: ok (fallback %.4f <= %.4f, psi cert %.4f >= %.4f, orient3 %.2fx >= %.2fx, psi %.2fx >= %.2fx, sos %.2fx >= %.2fx)\n",
			fallback, *maxFallback, psi.PsiCertRate(), *minPsiCert, o3Speedup, *minSpeedup, psiSpeedup, *minPsiSpeedup, sos.speedup(), *minSpeedup)
	}
	return *gate && !ok, nil
}

// bestOf runs f reps times and returns the fastest wall time.
func bestOf(reps int, f func()) time.Duration {
	if reps < 1 {
		reps = 1
	}
	best := time.Duration(0)
	for r := 0; r < reps; r++ {
		start := time.Now()
		f()
		if d := time.Since(start); r == 0 || d < best {
			best = d
		}
	}
	return best
}

// rate renders n operations over d as M/s.
func rate(n int, d time.Duration) string {
	if d <= 0 {
		return "inf M/s"
	}
	return fmt.Sprintf("%.1f M/s", float64(n)/d.Seconds()/1e6)
}

func speedup(ref, filt time.Duration) float64 {
	if filt <= 0 {
		return 0
	}
	return ref.Seconds() / filt.Seconds()
}
