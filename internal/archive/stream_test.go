package archive

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/core"
)

// buildBlobs compresses a few steps into standalone block blobs shared
// by the cross-version tests.
func buildBlobs(t testing.TB, steps int) [][]byte {
	t.Helper()
	blobs := make([][]byte, steps)
	for s := range blobs {
		f := step2D(s, 16)
		blob, _, err := core.Compress(f.Dims(), f.Components(), core.Options{Tau: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		blobs[s] = blob
	}
	return blobs
}

// containerV1 hand-builds a seed-layout container around the blobs.
func containerV1(blobs [][]byte) []byte {
	v1 := append([]byte(nil), magic[:]...)
	v1 = append(v1, version1)
	v1 = binary.AppendUvarint(v1, uint64(len(blobs)))
	for _, b := range blobs {
		v1 = binary.AppendUvarint(v1, uint64(len(b)))
	}
	for _, b := range blobs {
		v1 = append(v1, b...)
	}
	return v1
}

// TestStreamWriterRoundTrip pins the incremental writer: a v3 container
// written blob by blob reads back step by step, Size() tracks the final
// byte count exactly, and AppendBlob's running size is monotonic.
func TestStreamWriterRoundTrip(t *testing.T) {
	blobs := buildBlobs(t, 3)
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	prev := int64(0)
	for _, b := range blobs {
		n, err := sw.AppendBlob(b)
		if err != nil {
			t.Fatal(err)
		}
		if n <= prev {
			t.Fatalf("running size %d not monotonic after %d", n, prev)
		}
		prev = n
	}
	predicted := sw.Size()
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if got := int64(buf.Len()); got != predicted || got != sw.Size() {
		t.Fatalf("container is %d bytes; pre-Close Size() said %d, post-Close %d",
			got, predicted, sw.Size())
	}
	if _, err := sw.AppendBlob(blobs[0]); !errors.Is(err, ErrWriterClosed) {
		t.Fatalf("append after close: %v, want ErrWriterClosed", err)
	}

	sr, err := OpenStream(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if sr.Version() != 3 || sr.Steps() != len(blobs) {
		t.Fatalf("version %d steps %d, want 3 and %d", sr.Version(), sr.Steps(), len(blobs))
	}
	for s, want := range blobs {
		got, err := sr.ReadBlobInto(nil, s)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("step %d blob differs", s)
		}
	}
}

// TestCrossVersionGolden pins backward compatibility: the same blobs
// wrapped in every container version — v1 hand-built, v2 the committed
// fixture the retired writer produced, v3 from StreamWriter — and a bare
// block read back byte-identical through OpenStream.
func TestCrossVersionGolden(t *testing.T) {
	blobs := buildBlobs(t, 3)
	for _, tc := range []struct {
		name  string
		data  []byte
		ver   int
		blobs [][]byte
	}{
		{"v1", containerV1(blobs), 1, blobs},
		{"v2", readV2Fixture(t), 2, blobs},
		{"v3", writeV3(t, blobs), 3, blobs},
		{"bare", blobs[0], 0, blobs[:1]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sr, err := openBytes(tc.data)
			if err != nil {
				t.Fatal(err)
			}
			if sr.Version() != tc.ver {
				t.Fatalf("stream version %d, want %d", sr.Version(), tc.ver)
			}
			if sr.Steps() != len(tc.blobs) {
				t.Fatalf("steps %d, want %d", sr.Steps(), len(tc.blobs))
			}
			for s, want := range tc.blobs {
				got, err := sr.ReadBlobInto(nil, s)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s step %d blob differs", tc.name, s)
				}
			}
			if _, _, err := DecodeSeries(sr); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStreamReaderCorruption pins the v3 integrity checks: a flipped bit
// in the footer, trailer, or a blob must surface as an error on open or
// first read, never as silently wrong data.
func TestStreamReaderCorruption(t *testing.T) {
	valid := writeV3(t, buildBlobs(t, 2))

	corrupt := func(pos int) []byte {
		mut := bytes.Clone(valid)
		mut[pos] ^= 0x01
		return mut
	}
	for _, tc := range []struct {
		name string
		pos  int
	}{
		{"blob", 16},
		{"footer", len(valid) - trailerSize - 2},
		{"trailer-len", len(valid) - trailerSize + 1},
		{"trailer-magic", len(valid) - 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := corrupt(tc.pos)
			sr, err := OpenStream(bytes.NewReader(data), int64(len(data)))
			if err != nil {
				return // rejected at open: good
			}
			for s := 0; s < sr.Steps(); s++ {
				if _, err := sr.ReadBlobInto(nil, s); err != nil {
					return // rejected at read: good
				}
			}
			t.Fatal("corruption went unnoticed")
		})
	}

	// Truncations anywhere must not panic and must not produce a reader
	// claiming the full step count with readable blobs.
	for cut := 0; cut < len(valid); cut += 7 {
		sr, err := OpenStream(bytes.NewReader(valid[:cut]), int64(cut))
		if err != nil {
			continue
		}
		for s := 0; s < sr.Steps(); s++ {
			_, _ = sr.ReadBlobInto(nil, s)
		}
	}
}
