package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/encoder"
	"repro/internal/integrity"
)

// The self-describing block header, shared by the 2D and 3D streams: the
// encoder emits it from the kernel, the decoders and PeekBlock parse it.

// orderMode identifies the vertex visit order stored in the header.
type orderMode uint8

const (
	orderRaster   orderMode = 0 // plain raster scan
	orderTwoPhase orderMode = 1 // ratio-oriented: interior first, max planes last
	orderPieces   orderMode = 2 // slow-axis pieces: piece interiors first, seams last
)

// OrderError reports a block header whose visit order is unknown, or
// whose piece count does not fit the block: a pieced block is a whole
// domain (no neighbor side, no lossless border) of 2 … nSlow/2 pieces,
// where nSlow is its slowest axis's extent. It is a malformed header.
type OrderError struct {
	Order  uint8
	Pieces int
	NSlow  int
}

func (e *OrderError) Error() string {
	if orderMode(e.Order) != orderPieces {
		return fmt.Sprintf("core: malformed header: unknown visit order %d", e.Order)
	}
	return fmt.Sprintf("core: malformed header: %d pieces do not fit a whole block of %d slow-axis planes", e.Pieces, e.NSlow)
}

// Unwrap makes an OrderError an errHeader to errors.Is.
func (e *OrderError) Unwrap() error { return errHeader }

const (
	magic = 0x5343 // "SC"
	// version1 blocks carry no payload checksum (the seed format);
	// version2 appends a CRC32C over the entropy-coded payload sections
	// to the header. The encoder emits version2; the decoder reads both.
	version1 = 1
	version2 = 2
)

// FormatVersion is the block format version the encoder emits, recorded
// in run manifests for provenance.
const FormatVersion = version2

// header is the self-describing prefix of a compressed block.
type header struct {
	NDim     int
	NX, NY   int
	NZ       int // 0 in 2D
	Shift    int // fixed-point transform exponent
	Tau      int64
	Spec     Speculation
	Order    orderMode
	Pieces   int     // orderPieces: the slow-axis piece count
	HasGhost [6]bool // minX, maxX, minY, maxY, minZ, maxZ
	Border   bool    // lossless-border mode (informational)
	Temporal bool    // temporal prediction: decoder needs the previous frame
	// HasCRC reports whether the block stores PayloadCRC (version >= 2).
	// Version-1 blocks decode without integrity verification.
	HasCRC bool
	// PayloadCRC is the CRC32C computed by payloadChecksum: it covers
	// the marshaled header itself (with this field zeroed) followed by
	// the payload sections in section order, so a flipped bit in either
	// the header or the payload surfaces as an integrity error.
	PayloadCRC uint32
}

// payloadChecksum computes the version-2 block checksum over the header
// bytes (checksum field zeroed) and the given payload sections. The
// receiver is a value, so zeroing the field does not touch the caller's
// header.
func (h header) payloadChecksum(sections ...[]byte) uint32 {
	h.PayloadCRC = 0
	b := h.marshal() // the zeroed CRC field occupies the last 4 bytes
	parts := make([][]byte, 0, 1+len(sections))
	parts = append(parts, b[:len(b)-4])
	parts = append(parts, sections...)
	return integrity.Checksum(parts...)
}

func (h *header) marshal() []byte {
	var b []byte
	b = binary.LittleEndian.AppendUint16(b, magic)
	b = append(b, version2, byte(h.NDim))
	b = binary.AppendUvarint(b, uint64(h.NX))
	b = binary.AppendUvarint(b, uint64(h.NY))
	if h.NDim == 3 {
		b = binary.AppendUvarint(b, uint64(h.NZ))
	}
	b = binary.AppendVarint(b, int64(h.Shift))
	b = binary.AppendVarint(b, h.Tau)
	b = append(b, byte(h.Spec), byte(h.Order))
	if h.Order == orderPieces {
		b = binary.AppendUvarint(b, uint64(h.Pieces))
	}
	var ghost byte
	for i, g := range h.HasGhost {
		if g {
			ghost |= 1 << i
		}
	}
	b = append(b, ghost)
	var flags byte
	if h.Border {
		flags |= 1
	}
	if h.Temporal {
		flags |= 2
	}
	b = append(b, flags)
	b = binary.LittleEndian.AppendUint32(b, h.PayloadCRC)
	return b
}

var errHeader = errors.New("core: malformed header")

func (h *header) unmarshal(b []byte) error {
	if len(b) < 4 || binary.LittleEndian.Uint16(b) != magic {
		return errHeader
	}
	switch b[2] {
	case version1:
		h.HasCRC = false
	case version2:
		h.HasCRC = true
	default:
		return errHeader
	}
	h.NDim = int(b[3])
	if h.NDim != 2 && h.NDim != 3 {
		return errHeader
	}
	b = b[4:]
	read := func() (int, error) {
		v, k := binary.Uvarint(b)
		if k <= 0 {
			return 0, errHeader
		}
		b = b[k:]
		return int(v), nil
	}
	var err error
	if h.NX, err = read(); err != nil {
		return err
	}
	if h.NY, err = read(); err != nil {
		return err
	}
	if h.NDim == 3 {
		if h.NZ, err = read(); err != nil {
			return err
		}
	}
	// Sanity-bound dimensions so corrupt headers cannot cause overflowing
	// products or absurd allocations downstream.
	const maxDim = 1 << 28
	if h.NX < 2 || h.NY < 2 || h.NX > maxDim || h.NY > maxDim {
		return errHeader
	}
	if h.NDim == 3 && (h.NZ < 2 || h.NZ > maxDim) {
		return errHeader
	}
	sv, k := binary.Varint(b)
	if k <= 0 {
		return errHeader
	}
	h.Shift = int(sv)
	b = b[k:]
	tv, k := binary.Varint(b)
	if k <= 0 {
		return errHeader
	}
	h.Tau = tv
	b = b[k:]
	if len(b) < 2 {
		return errHeader
	}
	h.Spec = Speculation(b[0])
	h.Order = orderMode(b[1])
	b = b[2:]
	switch h.Order {
	case orderRaster, orderTwoPhase:
	case orderPieces:
		if h.Pieces, err = read(); err != nil {
			return err
		}
	default:
		return &OrderError{Order: uint8(h.Order)}
	}
	if len(b) < 2 {
		return errHeader
	}
	for i := range h.HasGhost {
		h.HasGhost[i] = b[0]&(1<<i) != 0
	}
	h.Border = b[1]&1 != 0
	h.Temporal = b[1]&2 != 0
	if h.Order == orderPieces {
		nSlow := h.NY
		if h.NDim == 3 {
			nSlow = h.NZ
		}
		if h.Pieces < 2 || h.Pieces > nSlow/2 || h.placed() {
			return &OrderError{Order: uint8(h.Order), Pieces: h.Pieces, NSlow: nSlow}
		}
	}
	if h.HasCRC {
		if len(b) < 6 {
			return errHeader
		}
		h.PayloadCRC = binary.LittleEndian.Uint32(b[2:])
	}
	return nil
}

// dims returns the block's dims, [NX, NY] or [NX, NY, NZ].
func (h *header) dims() []int {
	if h.NDim == 3 {
		return []int{h.NX, h.NY, h.NZ}
	}
	return []int{h.NX, h.NY}
}

// vertexCount returns NX·NY·NZ with overflow protection: a corrupt header
// whose per-dimension bounds pass individually must not overflow the
// product into a small (or negative) length that later slicing trusts.
func (h *header) vertexCount() (int, error) {
	const maxVerts = 1 << 40
	n := uint64(h.NX) * uint64(h.NY) // dims are each <= 2^28, no overflow
	if n > maxVerts {
		return 0, errHeader
	}
	if h.NDim == 3 {
		if n > maxVerts/uint64(h.NZ) { // overflow-safe: n*NZ would exceed maxVerts
			return 0, errHeader
		}
		n *= uint64(h.NZ)
	}
	return int(n), nil
}

// BlockHeader is what a compressed block's header says about the block,
// read by PeekBlock without decoding the payload.
type BlockHeader struct {
	// Dims is [NX, NY] or [NX, NY, NZ].
	Dims []int
	// Placed reports a block compressed as one piece of a decomposed
	// field: it has the lossless-border flag or a neighbor side. A
	// whole-field block, such as a series step, has neither.
	Placed bool
	// Lossless reports a fixed-point bound τ′ of 0: every vertex is
	// stored exactly, as in a CompressLossless block (the form a degraded
	// shm slab falls back to).
	Lossless bool
}

// PeekBlock parses a compressed block's header without decoding the
// payload.
func PeekBlock(blob []byte) (BlockHeader, error) {
	// UnpackFirst inflates only the header section, so peeking a blob —
	// or a long-enough prefix of one, which is how the streaming
	// container reader sizes its plan without loading slabs — costs
	// O(header), not O(payload).
	sec, err := encoder.UnpackFirst(blob)
	if err != nil {
		return BlockHeader{}, err
	}
	var h header
	if err := h.unmarshal(sec); err != nil {
		return BlockHeader{}, err
	}
	return BlockHeader{Dims: h.dims(), Placed: h.placed(), Lossless: h.Tau == 0}, nil
}

// placed reports a block compressed as one piece of a decomposed field:
// it has the lossless-border flag or a neighbor side.
func (h *header) placed() bool {
	return h.Border || slices.Contains(h.HasGhost[:], true)
}

// PeekHeader reports the dimensionality and sizes of a compressed block
// without decoding the payload. NZ is 0 for a 2D block.
//
// Deprecated: use PeekBlock.
func PeekHeader(blob []byte) (ndim, nx, ny, nz int, err error) {
	b, err := PeekBlock(blob)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	d := append(b.Dims, 0)
	return len(b.Dims), d[0], d[1], d[2], nil
}
