package core_test

import (
	"fmt"
	"log"
	"math"

	"repro/internal/core"
	"repro/internal/cp"
	"repro/internal/field"
	"repro/internal/fixed"
)

// Example compresses a small vector field with the critical-point-
// preserving compressor and verifies the topology survived.
func Example() {
	// A saddle flow: u = x−8, v = −(y−8).
	f := field.NewField2D(17, 17)
	for j := 0; j < 17; j++ {
		for i := 0; i < 17; i++ {
			idx := f.Idx(i, j)
			f.U[idx] = float32(i - 8)
			f.V[idx] = float32(-(j - 8))
		}
	}

	blob, tr, err := core.Compress(f.Dims(), f.Components(), core.Options{Tau: 0.1, Spec: core.ST2})
	if err != nil {
		log.Fatal(err)
	}
	dec, err := core.Decompress2D(blob)
	if err != nil {
		log.Fatal(err)
	}

	rep := cp.Compare(cp.DetectField2D(f, tr), cp.DetectField2D(dec, tr))
	fmt.Println("preserved:", rep.Preserved())
	fmt.Println("critical points:", rep.TP)
	// Output:
	// preserved: true
	// critical points: 1
}

// ExampleOptions_Validate shows the option contract.
func ExampleOptions_Validate() {
	fmt.Println(core.Options{}.Validate())
	fmt.Println(core.Options{Tau: 0.01, Spec: core.ST4}.Validate())
	// Output:
	// fixed: tau 0 out of domain
	// <nil>
}

// ExampleCompressField2D demonstrates sharing a transform between
// compression and ground-truth detection (required for byte-exact
// comparisons).
func ExampleCompressField2D() {
	f := field.NewField2D(8, 8)
	for j := 0; j < 8; j++ {
		for i := 0; i < 8; i++ {
			idx := f.Idx(i, j)
			f.U[idx] = float32(math.Sin(float64(i)))
			f.V[idx] = float32(math.Cos(float64(j)))
		}
	}
	tr, err := fixed.Fit(f.U, f.V)
	if err != nil {
		log.Fatal(err)
	}
	blob, err := core.CompressField2D(f, tr, core.Options{Tau: 0.05})
	if err != nil {
		log.Fatal(err)
	}
	dec, err := core.Decompress2D(blob)
	if err != nil {
		log.Fatal(err)
	}
	worst := 0.0
	for i := range f.U {
		worst = math.Max(worst, math.Abs(float64(f.U[i])-float64(dec.U[i])))
	}
	fmt.Println("within bound:", worst <= 0.05)
	// Output:
	// within bound: true
}
