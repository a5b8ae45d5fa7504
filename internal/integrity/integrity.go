// Package integrity provides the stream-integrity layer of the on-disk
// formats: CRC32C (Castagnoli) checksums over compressed payloads and the
// typed corruption error every decoder returns when a checksum fails.
//
// A flipped bit inside a DEFLATE stream does not necessarily make
// inflation fail — it can decompress silently into a wrong field, which
// would break the paper's zero-FP/FN/FT guarantee without any signal.
// Checksums close that hole: the archive container covers its header and
// every slab blob, and version-2 core blocks cover their entropy-coded
// payload sections, so corruption surfaces as a *IntegrityError naming
// the damaged section instead of as garbage data.
//
// The package sits below the formats (stdlib-only) so archive, core, and
// shm can all share the one error type.
package integrity

import (
	"fmt"
	"hash/crc32"
)

// castagnoli is the CRC32C polynomial table. Castagnoli is chosen over
// IEEE for its better burst-error detection and hardware support
// (SSE4.2/ARMv8 instructions, used by the stdlib when available).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32C over the concatenation of the given
// sections (without materializing the concatenation).
func Checksum(sections ...[]byte) uint32 {
	var c uint32
	for _, s := range sections {
		c = Update(c, s)
	}
	return c
}

// Update returns the CRC32C c extended by b: Checksum(x, b) is
// Update(Checksum(x), b).
func Update(c uint32, b []byte) uint32 {
	return crc32.Update(c, castagnoli, b)
}

// IntegrityError reports a checksum mismatch detected while decoding.
// Decoders return it wrapped (errors.As-compatible) so callers can
// distinguish detected corruption from structural parse errors and report
// exactly which part of a stream is damaged.
type IntegrityError struct {
	// Container identifies the enclosing format: "archive" for the
	// time-series/slab container, "block" for a core compressed block.
	Container string
	// Section names the damaged part within the container, e.g. "header"
	// or "payload".
	Section string
	// Slab is the slab/step index within an archive container, or -1 when
	// the error is not attributable to one slab.
	Slab int
	// Want is the stored checksum, Got the checksum of the bytes read.
	Want, Got uint32
}

func (e *IntegrityError) Error() string {
	if e.Slab >= 0 {
		return fmt.Sprintf("integrity: %s %s corrupt at slab %d (checksum %08x, want %08x)",
			e.Container, e.Section, e.Slab, e.Got, e.Want)
	}
	return fmt.Sprintf("integrity: %s %s corrupt (checksum %08x, want %08x)",
		e.Container, e.Section, e.Got, e.Want)
}

// Verify compares the stored checksum against the checksum of sections
// and returns a *IntegrityError describing the mismatch, or nil.
func Verify(container, section string, slab int, want uint32, sections ...[]byte) error {
	if got := Checksum(sections...); got != want {
		return &IntegrityError{Container: container, Section: section, Slab: slab, Want: want, Got: got}
	}
	return nil
}
