package cpsz

import (
	"testing"

	"repro/internal/safedim"
)

// FuzzDecompress asserts the decoder never panics on corrupt input, and
// that a stream it accepts decodes to components matching its dims.
func FuzzDecompress(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x43, 0x5A, 2, 0})
	fld := smooth2D(55, 10, 8)
	blob, err := Compress([]int{fld.NX, fld.NY}, fld.Components(), Options{Rel: 0.1, Scheme: Coupled})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	mut := append([]byte(nil), blob...)
	for i := 3; i < len(mut); i += 5 {
		mut[i] ^= 0xA5
	}
	f.Add(mut)
	fld3 := smooth3D(57, 5)
	blob3, err := Compress([]int{fld3.NX, fld3.NY, fld3.NZ}, fld3.Components(), Options{Rel: 0.05, Scheme: Coupled})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob3)
	f.Fuzz(func(t *testing.T, data []byte) {
		dims, comps, err := Decompress(data)
		if err != nil {
			return
		}
		n, shapeErr := safedim.Field(dims, comps, len(dims))
		if shapeErr != nil || n == 0 {
			t.Fatalf("decoded dims %v do not match the components: %v", dims, shapeErr)
		}
	})
}

func TestDecompressTruncationsNeverPanic(t *testing.T) {
	fld := smooth2D(56, 16, 12)
	blob, err := Compress([]int{fld.NX, fld.NY}, fld.Components(), Options{Rel: 0.1, Scheme: Decoupled})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(blob); cut += 13 {
		Decompress(blob[:cut]) // must not panic
	}
}
