package shm

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/field"
	"repro/internal/fixed"
)

// Container robustness: decoding arbitrary bytes must produce an error
// or a consistent field, never a panic — even though slab decodes fan
// out over the worker pool. Seeds are a valid slab container and a bare
// core block, plus truncations and bit flips of both, and a time series
// (which must fail as corrupt).

func FuzzContainerDecompress(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{'S', 'C', 'A', 'R', 2, 4})

	fld := datagen.Ocean(48, 40)
	tr, err := fixed.Fit(fld.U, fld.V)
	if err != nil {
		f.Fatal(err)
	}
	res, err := Compress(field.Mem2D(fld), tr, core.Options{Tau: 0.05}, Options{Slabs: 4, Workers: 2})
	if err != nil {
		f.Fatal(err)
	}
	valid := res.Blob
	f.Add(valid)
	f.Add(valid[:len(valid)/3])
	f.Add(valid[:len(valid)-5])
	for _, pos := range []int{4, 7, len(valid) / 2, len(valid) - 2} {
		mut := bytes.Clone(valid)
		mut[pos] ^= 0x08
		f.Add(mut)
	}

	// A bare core block decodes as a one-slab container.
	bare, _, err := core.Compress(fld.Dims(), fld.Components(), core.Options{Tau: 0.05})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bare)
	f.Add(bare[:len(bare)/2])
	for _, pos := range []int{0, len(bare) / 2, len(bare) - 1} {
		mut := bytes.Clone(bare)
		mut[pos] ^= 0x08
		f.Add(mut)
	}

	// A time series is a valid container but not a slab container.
	series := seriesContainer(f)
	f.Add(series)

	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := decode2D(data, 2)
		if bytes.Equal(data, series) && !errors.Is(err, archive.ErrCorrupt) {
			t.Fatalf("series decoded as slabs: %v", err)
		}
		if err != nil {
			return
		}
		if out == nil {
			t.Fatal("nil field without error")
		}
		if len(out.U) != out.NX*out.NY || len(out.V) != out.NX*out.NY {
			t.Fatal("inconsistent field")
		}
	})
}
