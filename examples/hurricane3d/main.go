// Hurricane 3D: the workload behind the paper's Table VI and Fig. 7.
// Compresses a synthetic tropical-cyclone field, verifies critical point
// preservation, and compares streamlines traced through the original and
// decompressed fields — the quantitative counterpart of the paper's
// visual comparison.
//
// Usage: go run ./examples/hurricane3d [-dims 64x64x32]
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/cp"
	"repro/internal/cpsz"
	"repro/internal/datagen"
	"repro/internal/field"
	"repro/internal/fixed"
)

func main() {
	dims := flag.String("dims", "64x64x32", "grid dimensions")
	flag.Parse()

	var nx, ny, nz int
	if _, err := fmt.Sscanf(*dims, "%dx%dx%d", &nx, &ny, &nz); err != nil {
		log.Fatal("bad -dims: ", err)
	}
	f := datagen.Hurricane(nx, ny, nz)
	tr, err := fixed.Fit(f.U, f.V, f.W)
	if err != nil {
		log.Fatal(err)
	}
	tau := 0.01 * field.Range(f.U, f.V, f.W)
	orig := cp.Detect(f.Dims(), f.Components(), tr)
	fmt.Printf("hurricane %dx%dx%d: %d critical points (vortex core and background eddies)\n",
		nx, ny, nz, len(orig))

	// Reference streamlines seeded along the volume diagonal, as in the
	// paper's figures.
	seeds := analysis.DiagonalSeeds3D(f, 10)
	ref := analysis.TraceAll3D(f, seeds, 0.25, 300)
	raw := 4 * 3 * len(f.U)

	// Our compressor at two speculation levels.
	for _, spec := range []core.Speculation{core.NoSpec, core.ST4} {
		blob, _, err := core.Compress(f.Dims(), f.Components(), core.Options{Tau: tau, Spec: spec})
		if err != nil {
			log.Fatal(err)
		}
		_, comps, err := core.Decompress(blob)
		if err != nil {
			log.Fatal(err)
		}
		rep := cp.Compare(orig, cp.Detect(f.Dims(), comps, tr))
		dec := &field.Field3D{NX: nx, NY: ny, NZ: nz, U: comps[0], V: comps[1], W: comps[2]}
		div := analysis.StreamlineDivergence(ref, analysis.TraceAll3D(dec, seeds, 0.25, 300))
		fmt.Printf("ours %-7s ratio %6.2f  %v  streamline divergence %.4f\n",
			spec, float64(raw)/float64(len(blob)), rep, div)
		if !rep.Preserved() {
			log.Fatal("critical points lost")
		}
	}

	// The cpSZ baseline for comparison.
	blob, err := cpsz.Compress([]int{nx, ny, nz}, f.Components(), cpsz.Options{Rel: 0.05, Scheme: cpsz.Coupled})
	if err != nil {
		log.Fatal(err)
	}
	_, comps, err := cpsz.Decompress(blob)
	if err != nil {
		log.Fatal(err)
	}
	dec := &field.Field3D{NX: nx, NY: ny, NZ: nz, U: comps[0], V: comps[1], W: comps[2]}
	rep := cp.Compare(orig, cp.Detect(f.Dims(), comps, tr))
	div := analysis.StreamlineDivergence(ref, analysis.TraceAll3D(dec, seeds, 0.25, 300))
	fmt.Printf("cpSZ coupled ratio %6.2f  %v  streamline divergence %.4f\n",
		float64(raw)/float64(len(blob)), rep, div)
}
