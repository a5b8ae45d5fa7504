package archive

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/core"
)

// Reader robustness: arbitrary container bytes must produce an error or
// a correctly decoded series, never a panic. Seeds cover all three
// container versions, bare core blocks and a slab container (which
// DecodeSeries must reject), plus truncations and bit flips of valid
// v2, v3 and bare inputs — for v3 specifically the flips
// target the trailer and footer index, the sections its checksums exist
// to guard.

func FuzzArchiveDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{'S', 'C', 'A', 'R'})
	f.Add([]byte{'S', 'C', 'A', 'R', version1})
	f.Add([]byte{'S', 'C', 'A', 'R', version2, 3})
	f.Add([]byte{'S', 'C', 'A', 'R', version3})
	f.Add(append([]byte{'S', 'C', 'A', 'R', version3}, trailerMagic[:]...))

	valid := readV2Fixture(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-3])
	for _, pos := range []int{5, 9, len(valid) / 2, len(valid) - 1} {
		mut := bytes.Clone(valid)
		mut[pos] ^= 0x10
		f.Add(mut)
	}

	blobs := buildBlobs(f, 3)
	v3 := writeV3(f, blobs)
	f.Add(v3)
	f.Add(v3[:len(v3)/2])
	f.Add(v3[:len(v3)-trailerSize])   // trailer sheared off entirely
	f.Add(v3[:len(v3)-trailerSize/2]) // trailer split mid-way
	for _, pos := range []int{
		5,                         // first blob byte
		len(v3) - trailerSize - 1, // last footer byte
		len(v3) - trailerSize + 2, // footer length field
		len(v3) - trailerSize + 6, // footer CRC field
		len(v3) - 2,               // trailing magic
	} {
		mut := bytes.Clone(v3)
		mut[pos] ^= 0x10
		f.Add(mut)
	}

	// A slab container is a valid container but not a time series.
	slabs := writeV3(f, slabBlobs(f))
	f.Add(slabs)

	bare := blobs[0]
	f.Add(bare)
	f.Add(bare[:len(bare)/2])
	for _, pos := range []int{0, 3, len(bare) / 2, len(bare) - 1} {
		mut := bytes.Clone(bare)
		mut[pos] ^= 0x10
		f.Add(mut)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		sr, err := openBytes(data)
		if err != nil {
			return
		}
		for step := 0; step < sr.Steps(); step++ {
			blob, err := sr.ReadBlobInto(nil, step)
			if err != nil {
				continue
			}
			fld, err := core.Decompress2D(blob)
			if err == nil && fld == nil {
				t.Fatal("nil field without error")
			}
		}
		// A reader over intact bytes must keep decoding the same series.
		if bytes.Equal(data, valid) || bytes.Equal(data, v3) || bytes.Equal(data, bare) {
			if _, _, err := DecodeSeries(sr); err != nil {
				t.Fatalf("valid input failed to decode: %v", err)
			}
		}
		if bytes.Equal(data, slabs) {
			if _, _, err := DecodeSeries(sr); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("slab container decoded as a series: %v", err)
			}
		}
	})
}
