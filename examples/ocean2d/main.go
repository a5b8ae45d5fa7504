// Ocean 2D: the workload of the paper's Fig. 5. Generates the synthetic
// ocean current field (gyres + land mask), compresses it under every
// speculation target, verifies preservation, and renders LIC images with
// critical point overlays for visual inspection.
//
// Usage: go run ./examples/ocean2d [-dims 384x288] [-out .]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/cp"
	"repro/internal/datagen"
	"repro/internal/field"
	"repro/internal/fixed"
)

func main() {
	dims := flag.String("dims", "384x288", "grid dimensions")
	out := flag.String("out", ".", "output directory for PPM images")
	flag.Parse()

	var nx, ny int
	if _, err := fmt.Sscanf(*dims, "%dx%d", &nx, &ny); err != nil {
		log.Fatal("bad -dims: ", err)
	}
	f := datagen.Ocean(nx, ny)
	tr, err := fixed.Fit(f.U, f.V)
	if err != nil {
		log.Fatal(err)
	}
	tau := 0.01 * field.Range(f.U, f.V)
	orig := cp.Detect(f.Dims(), f.Components(), tr)
	fmt.Printf("ocean %dx%d: %d critical points in the original field\n", nx, ny, len(orig))

	if err := render(f, orig, filepath.Join(*out, "ocean-original.ppm")); err != nil {
		log.Fatal(err)
	}

	raw := 4 * 2 * len(f.U)
	for _, spec := range []core.Speculation{core.NoSpec, core.ST1, core.ST2, core.ST3, core.ST4} {
		blob, _, err := core.Compress(f.Dims(), f.Components(), core.Options{Tau: tau, Spec: spec})
		if err != nil {
			log.Fatal(err)
		}
		_, comps, err := core.Decompress(blob)
		if err != nil {
			log.Fatal(err)
		}
		pts := cp.Detect(f.Dims(), comps, tr)
		dec := &field.Field2D{NX: nx, NY: ny, U: comps[0], V: comps[1]}
		rep := cp.Compare(orig, pts)
		fmt.Printf("%-7s ratio %6.2f  %v\n", spec, float64(raw)/float64(len(blob)), rep)
		if !rep.Preserved() {
			log.Fatalf("%v did not preserve critical points", spec)
		}
		name := filepath.Join(*out, fmt.Sprintf("ocean-%s.ppm", spec))
		if err := render(dec, pts, name); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("LIC renderings written; red=sources, blue=sinks, green=saddles, yellow=centers")
}

// render draws the field as LIC with critical point markers and writes a
// binary PPM.
func render(f *field.Field2D, pts []cp.Point, path string) error {
	img := analysis.LIC(f, 10, 7)
	color := analysis.OverlayCriticalPoints(img, f.NX, f.NY, pts)
	w, err := os.Create(path)
	if err != nil {
		return err
	}
	defer w.Close()
	return analysis.WritePPM(w, color, f.NX, f.NY)
}
