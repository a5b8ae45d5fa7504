// Streaming container support: the version-3 layout whose index travels
// in a checksummed footer, so a writer can flush every blob to its
// destination the moment the blob is sealed, and a reader over an
// io.ReaderAt can load one blob at a time. This is the on-disk format of
// the out-of-core slab pipeline (package shm): peak writer memory is
// O(index), never O(container), and peak reader memory is O(one blob).
//
// Version-3 layout (little endian):
//
//	magic "SCAR" | version u8 (=3)
//	concatenated blobs
//	footer: step count uvarint
//	        per step: blob length uvarint
//	        per step: blob CRC32C u32
//	trailer: footer length u32 | footer CRC32C u32 | magic "RACS"
//
// The trailer is fixed-size so a reader can locate the footer from the
// end of the file; the footer CRC covers the footer bytes, and every blob
// carries its own CRC32C verified on load. Version-1/2 containers (index
// up front) and bare core blocks remain readable through StreamReader.

package archive

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/integrity"
)

const version3 = 3 // streaming layout: blobs first, checksummed footer index

// trailerMagic closes a version-3 container ("SCAR" reversed).
var trailerMagic = [4]byte{'R', 'A', 'C', 'S'}

// trailerSize is the fixed byte length of the version-3 trailer:
// footer length u32, footer CRC32C u32, trailing magic.
const trailerSize = 12

// ErrWriterClosed reports an append after Close.
var ErrWriterClosed = errors.New("archive: writer already closed")

// StreamWriter emits a version-3 container incrementally: every appended
// blob is written to the underlying io.Writer immediately, and Close
// appends the footer index plus trailer.
//
// Memory contract: the writer retains O(1) state per appended step (one
// length and one checksum — 12 bytes), never the blob data itself. Peak
// memory is O(index), independent of blob sizes, which is what allows
// the slab pipeline to emit containers far larger than RAM.
type StreamWriter struct {
	w       io.Writer
	size    int64
	lens    []uint64
	crcs    []uint32
	started bool
	closed  bool
	err     error
}

// NewStreamWriter returns a StreamWriter emitting a version-3 container
// on w. The header is written on the first append (or on Close for an
// empty container).
func NewStreamWriter(w io.Writer) *StreamWriter {
	return &StreamWriter{w: w}
}

func (sw *StreamWriter) start() error {
	if sw.started {
		return nil
	}
	sw.started = true
	n, err := sw.w.Write([]byte{magic[0], magic[1], magic[2], magic[3], version3})
	sw.size += int64(n)
	return err
}

// AppendBlob writes one pre-compressed step through to the destination
// and returns the running container size in bytes (blob data written so
// far plus the footer the eventual Close will add). A failed underlying
// write poisons the writer: the error is returned now and again from
// every later call.
func (sw *StreamWriter) AppendBlob(blob []byte) (int64, error) {
	if sw.err != nil {
		return sw.Size(), sw.err
	}
	if sw.closed {
		sw.err = ErrWriterClosed
		return sw.Size(), sw.err
	}
	if err := sw.start(); err != nil {
		sw.err = err
		return sw.Size(), err
	}
	n, err := sw.w.Write(blob)
	sw.size += int64(n)
	if err != nil {
		sw.err = err
		return sw.Size(), err
	}
	sw.lens = append(sw.lens, uint64(len(blob)))
	sw.crcs = append(sw.crcs, integrity.Checksum(blob))
	return sw.Size(), nil
}

// Steps returns the number of blobs appended so far.
func (sw *StreamWriter) Steps() int { return len(sw.lens) }

// Size returns the byte size the container will have after Close: bytes
// already written plus the pending footer and trailer. After Close it is
// the final container size.
func (sw *StreamWriter) Size() int64 {
	if sw.closed {
		return sw.size
	}
	return sw.size + int64(len(sw.footer())) + trailerSize
}

// footer renders the pending index section.
func (sw *StreamWriter) footer() []byte {
	var f []byte
	f = binary.AppendUvarint(f, uint64(len(sw.lens)))
	for _, l := range sw.lens {
		f = binary.AppendUvarint(f, l)
	}
	for _, c := range sw.crcs {
		f = binary.LittleEndian.AppendUint32(f, c)
	}
	return f
}

// Close writes the footer index and trailer. The underlying writer is
// not closed (the caller owns it).
func (sw *StreamWriter) Close() error {
	if sw.err != nil {
		return sw.err
	}
	if sw.closed {
		return ErrWriterClosed
	}
	sw.closed = true
	if err := sw.start(); err != nil {
		sw.err = err
		return err
	}
	f := sw.footer()
	var tail []byte
	tail = append(tail, f...)
	tail = binary.LittleEndian.AppendUint32(tail, uint32(len(f)))
	tail = binary.LittleEndian.AppendUint32(tail, integrity.Checksum(f))
	tail = append(tail, trailerMagic[:]...)
	n, err := sw.w.Write(tail)
	sw.size += int64(n)
	if err != nil {
		sw.err = err
	}
	return err
}

// StreamReader provides random access to the steps of a container
// through an io.ReaderAt without ever holding more than the index plus
// one blob in memory. It reads all three container versions — the
// version-3 footer index, and the version-1/2 head index (which is
// O(index) to parse, not O(container)) — and bare core blocks as
// one-step containers.
//
// Memory contract: Open parses and retains the index only (~16 bytes per
// step); ReadBlobInto loads exactly one blob, verifying its CRC (version
// >= 2). Methods are safe for concurrent use once opened, as io.ReaderAt
// permits concurrent reads.
type StreamReader struct {
	r       io.ReaderAt
	version int
	offs    []int64
	lens    []int64
	crcs    []uint32 // nil for version 1 and bare blocks
}

// OpenStream indexes the container held by r. size must be the total
// container length in bytes (e.g. the file size). Input that does not
// start with the container magic is a bare core block: it opens as a
// one-step container of version 0 whose blob is the whole input.
func OpenStream(r io.ReaderAt, size int64) (*StreamReader, error) {
	if size <= 0 {
		return nil, ErrCorrupt
	}
	var head [5]byte
	n := int64(len(head))
	if size < n {
		n = size
	}
	if _, err := r.ReadAt(head[:n], 0); err != nil {
		return nil, err
	}
	if n < 4 || string(head[:4]) != string(magic[:]) {
		return &StreamReader{r: r, version: versionBare, offs: []int64{0}, lens: []int64{size}}, nil
	}
	if n < 5 {
		return nil, ErrCorrupt
	}
	switch head[4] {
	case version1, version2:
		return openStreamV12(r, size, int(head[4]))
	case version3:
		return openStreamV3(r, size)
	default:
		return nil, ErrCorrupt
	}
}

// openStreamV3 locates and verifies the footer index from the trailer.
func openStreamV3(r io.ReaderAt, size int64) (*StreamReader, error) {
	if size < 5+trailerSize {
		return nil, ErrCorrupt
	}
	var tr [trailerSize]byte
	if _, err := r.ReadAt(tr[:], size-trailerSize); err != nil {
		return nil, err
	}
	if string(tr[8:12]) != string(trailerMagic[:]) {
		return nil, ErrCorrupt
	}
	footLen := int64(binary.LittleEndian.Uint32(tr[0:4]))
	wantCRC := binary.LittleEndian.Uint32(tr[4:8])
	if footLen < 1 || footLen > size-5-trailerSize {
		return nil, ErrCorrupt
	}
	// The footer is the only whole section the reader materializes; it is
	// O(steps), not O(container).
	//lint:ignore slabbuffer footLen is bounded by the trailer's u32 and holds the O(steps) index, never blob data
	foot := make([]byte, footLen)
	if _, err := r.ReadAt(foot, size-trailerSize-footLen); err != nil {
		return nil, err
	}
	if err := integrity.Verify("archive", "footer", -1, wantCRC, foot); err != nil {
		return nil, err
	}
	n, k := binary.Uvarint(foot)
	if k <= 0 || n > uint64(footLen) {
		return nil, ErrCorrupt
	}
	rest := foot[k:]
	// n is bounded by footLen (one length byte per step minimum), so the
	// index slices are O(steps).
	count := int(n)
	sr := &StreamReader{r: r, version: version3,
		offs: make([]int64, count), lens: make([]int64, count), crcs: make([]uint32, count)}
	off := int64(5)
	for i := range sr.lens {
		l, k := binary.Uvarint(rest)
		if k <= 0 {
			return nil, ErrCorrupt
		}
		rest = rest[k:]
		sr.offs[i] = off
		sr.lens[i] = int64(l)
		off += int64(l)
	}
	if off > size-trailerSize-footLen {
		return nil, ErrCorrupt
	}
	if int64(len(rest)) != 4*int64(n) {
		return nil, ErrCorrupt
	}
	for i := range sr.crcs {
		sr.crcs[i] = binary.LittleEndian.Uint32(rest)
		rest = rest[4:]
	}
	return sr, nil
}

// openStreamV12 parses the head index of a version-1/2 container
// through a buffered section reader, so only O(index) bytes are ever
// resident.
func openStreamV12(r io.ReaderAt, size int64, ver int) (*StreamReader, error) {
	hr := &headReader{br: bufio.NewReader(io.NewSectionReader(r, 5, size-5)),
		head: []byte{magic[0], magic[1], magic[2], magic[3], byte(ver)}}
	n, err := binary.ReadUvarint(hr)
	// Each step costs at least one length byte.
	if err != nil || n > uint64(size) {
		return nil, fmt.Errorf("%w: head step count: %v", ErrCorrupt, err)
	}
	sr := &StreamReader{r: r, version: ver}
	for i := uint64(0); i < n; i++ {
		l, err := binary.ReadUvarint(hr)
		if err != nil || l > uint64(size) {
			return nil, fmt.Errorf("%w: head length %d: %v", ErrCorrupt, i, err)
		}
		sr.lens = append(sr.lens, int64(l))
	}
	if ver == version2 {
		// Per-blob CRC table, then the head CRC over everything before it.
		for i := uint64(0); i <= n; i++ {
			var b [4]byte
			if _, err := io.ReadFull(hr.br, b[:]); err != nil {
				return nil, fmt.Errorf("%w: head CRC table: %v", ErrCorrupt, err)
			}
			crc := binary.LittleEndian.Uint32(b[:])
			if i < n {
				sr.crcs = append(sr.crcs, crc)
			} else if err := integrity.Verify("archive", "header", -1, crc, hr.head); err != nil {
				return nil, err
			}
			hr.head = append(hr.head, b[:]...)
		}
	}
	// The blob region must fit the declared lengths.
	off := int64(len(hr.head))
	for _, l := range sr.lens {
		sr.offs = append(sr.offs, off)
		if off += l; off > size {
			return nil, ErrCorrupt
		}
	}
	return sr, nil
}

// headReader records the bytes a head parse consumes, for the head CRC.
type headReader struct {
	br   *bufio.Reader
	head []byte
}

func (h *headReader) ReadByte() (byte, error) {
	b, err := h.br.ReadByte()
	if err == nil {
		h.head = append(h.head, b)
	}
	return b, err
}

// Steps returns the number of steps in the container.
func (sr *StreamReader) Steps() int { return len(sr.lens) }

// Version returns the container layout version (1, 2 or 3), or 0 for a
// bare core block.
func (sr *StreamReader) Version() int { return sr.version }

// BlobLen returns the stored byte length of one step's blob.
func (sr *StreamReader) BlobLen(step int) (int64, error) {
	if step < 0 || step >= len(sr.lens) {
		return 0, fmt.Errorf("%w: step %d not in [0,%d)", ErrStepRange, step, len(sr.lens))
	}
	return sr.lens[step], nil
}

// ReadBlobPrefix loads at most n leading bytes of one step's blob into
// buf (grown as needed). The prefix carries no checksum of its own, so
// this is for planning reads — header peeks — whose results are
// re-verified when the full blob is loaded through ReadBlobInto.
func (sr *StreamReader) ReadBlobPrefix(buf []byte, step int, n int64) ([]byte, error) {
	l, err := sr.BlobLen(step)
	if err != nil {
		return nil, err
	}
	if n > l {
		n = l
	}
	if int64(len(buf)) < n {
		//lint:ignore slabbuffer the prefix is capped at min(n, blob length) by this function's contract — at worst one blob, reached only when every shorter peek failed
		buf = make([]byte, n)
	}
	b := buf[:n]
	if _, err := sr.r.ReadAt(b, sr.offs[step]); err != nil {
		return nil, fmt.Errorf("archive: step %d prefix: %w", step, err)
	}
	return b, nil
}

// ReadBlobInto loads one step's blob into buf (grown when too small,
// so callers can reuse one buffer across steps) and verifies its CRC32C
// on containers that carry one (version >= 2). The returned slice
// aliases buf.
func (sr *StreamReader) ReadBlobInto(buf []byte, step int) ([]byte, error) {
	l, err := sr.BlobLen(step)
	if err != nil {
		return nil, err
	}
	if int64(len(buf)) < l {
		//lint:ignore slabbuffer one blob is O(slab) by the container's construction; the caller recycles this buffer across steps
		buf = make([]byte, l)
	}
	b := buf[:l]
	if _, err := sr.r.ReadAt(b, sr.offs[step]); err != nil {
		return nil, fmt.Errorf("archive: step %d: %w", step, err)
	}
	if sr.crcs != nil {
		if err := integrity.Verify("archive", "slab blob", step, sr.crcs[step], b); err != nil {
			return nil, err
		}
	}
	return b, nil
}
