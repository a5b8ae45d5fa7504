package baselines

import (
	"testing"

	"repro/internal/safedim"
)

// Decoder robustness for the three baseline codecs: corrupt or truncated
// input must error, never panic or allocate unboundedly, and a stream
// that does decode must return components that match its dims.

// checkDecoded fails when a successful decode returns components that do
// not match the dims it reports.
func checkDecoded(t *testing.T, dims []int, comps [][]float32, err error) {
	t.Helper()
	if err != nil {
		return
	}
	if _, shapeErr := safedim.Field(dims, comps, len(dims)); shapeErr != nil {
		t.Fatalf("decoded dims %v do not match the components: %v", dims, shapeErr)
	}
}

// seed3D is the 3D seed every fuzzer adds next to its 2D ones.
func seed3D(f *testing.F, c Codec) {
	fld := smooth3D(64, 5)
	blob, err := c.Compress(dims3(fld), fld.Components())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
}

func FuzzSZLikeDecompress(f *testing.F) {
	fld := smooth2D(60, 12, 10)
	blob, err := SZLike{Abs: 0.01}.Compress(dims2(fld), fld.Components())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/3])
	f.Add([]byte{})
	seed3D(f, SZLike{Abs: 0.01})
	f.Fuzz(func(t *testing.T, data []byte) {
		dims, comps, err := SZLike{}.Decompress(data)
		checkDecoded(t, dims, comps, err)
	})
}

func FuzzZFPLikeDecompress(f *testing.F) {
	fld := smooth2D(61, 12, 10)
	blob, err := ZFPLike{Accuracy: 0.01}.Compress(dims2(fld), fld.Components())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/3])
	seed3D(f, ZFPLike{Accuracy: 0.01})
	f.Fuzz(func(t *testing.T, data []byte) {
		dims, comps, err := ZFPLike{}.Decompress(data)
		checkDecoded(t, dims, comps, err)
	})
}

func FuzzFPZIPLikeDecompress(f *testing.F) {
	fld := smooth2D(62, 12, 10)
	blob, err := FPZIPLike{Precision: 16}.Compress(dims2(fld), fld.Components())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/3])
	seed3D(f, FPZIPLike{Precision: 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		dims, comps, err := FPZIPLike{}.Decompress(data)
		checkDecoded(t, dims, comps, err)
	})
}

func TestBaselineTruncationsNeverPanic(t *testing.T) {
	fld := smooth2D(63, 16, 12)
	blobs := [][]byte{}
	if b, err := (SZLike{Abs: 0.01}).Compress(dims2(fld), fld.Components()); err == nil {
		blobs = append(blobs, b)
	}
	if b, err := (ZFPLike{Precision: 12}).Compress(dims2(fld), fld.Components()); err == nil {
		blobs = append(blobs, b)
	}
	if b, err := (FPZIPLike{Precision: 16}).Compress(dims2(fld), fld.Components()); err == nil {
		blobs = append(blobs, b)
	}
	for _, blob := range blobs {
		for cut := 0; cut < len(blob); cut += 11 {
			SZLike{}.Decompress(blob[:cut])
			ZFPLike{}.Decompress(blob[:cut])
			FPZIPLike{}.Decompress(blob[:cut])
		}
	}
}
