package archive

import (
	"bytes"
	"testing"
	"testing/quick"
)

// Property: the archive container reproduces arbitrary blob sequences
// byte-exactly, in order.
func TestQuickArchiveRoundTrip(t *testing.T) {
	f := func(blobs [][]byte) bool {
		sr, err := openBytes(writeV3(t, blobs))
		if err != nil {
			return false
		}
		if sr.Steps() != len(blobs) {
			return false
		}
		for i, want := range blobs {
			got, err := sr.ReadBlobInto(nil, i)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: truncating an archive anywhere yields an error or a reader
// whose blobs all load (never a panic).
func TestQuickTruncationSafety(t *testing.T) {
	var blobs [][]byte
	for i := 0; i < 5; i++ {
		blobs = append(blobs, bytes.Repeat([]byte{byte(i)}, 20+i*7))
	}
	data := writeV3(t, blobs)
	for cut := 0; cut <= len(data); cut++ {
		sr, err := openBytes(data[:cut])
		if err != nil {
			continue
		}
		for s := 0; s < sr.Steps(); s++ {
			if _, err := sr.ReadBlobInto(nil, s); err != nil {
				t.Fatalf("cut %d: in-range blob errored: %v", cut, err)
			}
		}
	}
}
