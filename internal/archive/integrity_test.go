package archive

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/integrity"
)

// v2Fixture is a 3-step version-2 container around buildBlobs(3), as the
// retired version-2 writer emitted it.
const v2Fixture = "testdata/v2-3step.scar"

func readV2Fixture(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile(v2Fixture)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// v2HeadLen re-derives a version-2 head length: magic+version, count,
// lengths, CRC table, head CRC.
func v2HeadLen(data []byte) int {
	rest := data[5:]
	n, k := binary.Uvarint(rest)
	rest = rest[k:]
	for i := uint64(0); i < n; i++ {
		_, k := binary.Uvarint(rest)
		rest = rest[k:]
	}
	rest = rest[4*(int(n)+1):]
	return len(data) - len(rest)
}

func TestArchiveBlobCorruptionDetected(t *testing.T) {
	bad := bytes.Clone(readV2Fixture(t))
	bad[len(bad)-1] ^= 0x40 // last byte belongs to the last blob
	sr, err := openBytes(bad)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sr.ReadBlobInto(nil, 2)
	var ie *integrity.IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("want IntegrityError, got %v", err)
	}
	if ie.Container != "archive" || ie.Section != "slab blob" || ie.Slab != 2 {
		t.Fatalf("wrong attribution: %v", ie)
	}
}

func TestArchiveHeaderCorruptionDetected(t *testing.T) {
	data := readV2Fixture(t)
	bad := bytes.Clone(data)
	bad[v2HeadLen(data)-8] ^= 0x01 // inside the per-blob CRC table
	_, err := openBytes(bad)
	var ie *integrity.IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("want IntegrityError, got %v", err)
	}
	if ie.Container != "archive" || ie.Section != "header" {
		t.Fatalf("wrong attribution: %v", ie)
	}
}

// TestArchiveV1Readable hand-builds a seed-layout (version 1, no
// checksums) archive and checks it still parses and decodes, and that a
// bare block opens as a one-step container of version 0.
func TestArchiveV1Readable(t *testing.T) {
	f := step2D(0, 16)
	blob, _, err := core.Compress(f.Dims(), f.Components(), core.Options{Tau: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		data []byte
		ver  int
	}{{containerV1([][]byte{blob}), version1}, {blob, versionBare}} {
		sr, err := openBytes(tc.data)
		if err != nil {
			t.Fatal(err)
		}
		if sr.Version() != tc.ver || sr.Steps() != 1 {
			t.Fatalf("version %d steps %d, want %d and 1", sr.Version(), sr.Steps(), tc.ver)
		}
		if _, err := decodeStep(t, sr, 0); err != nil {
			t.Fatal(err)
		}
	}
}
