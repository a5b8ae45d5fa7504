// Package encoder is the final lossless stage of the compression pipeline.
//
// Huffman-coded quantization streams and literal bytes are packed into a
// length-prefixed container and passed through DEFLATE — the stdlib
// stand-in for the ZSTD backend used in the paper (see DESIGN.md,
// substitutions).
package encoder

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
)

// flatePool recycles DEFLATE writers across Pack calls: a flate.Writer
// carries ~1.2 MB of match-finder state whose allocation would otherwise
// dominate small-block encodes (one block per slab in the shared-memory
// pipeline).
var flatePool = sync.Pool{New: func() interface{} {
	w, err := flate.NewWriter(io.Discard, flate.DefaultCompression)
	if err != nil {
		// DefaultCompression is a valid level; NewWriter cannot fail on it.
		panic(err)
	}
	return w
}}

// Deflate compresses data with DEFLATE at the default level.
func Deflate(data []byte) ([]byte, error) {
	var buf bytes.Buffer
	w := flatePool.Get().(*flate.Writer)
	w.Reset(&buf)
	_, werr := w.Write(data)
	cerr := w.Close()
	flatePool.Put(w)
	if werr != nil {
		return nil, werr
	}
	if cerr != nil {
		return nil, cerr
	}
	return buf.Bytes(), nil
}

// inflater is a pooled DEFLATE reader over a reusable byte source, with
// a small buffered reader over it for the uvarint section lengths.
type inflater struct {
	src bytes.Reader
	fr  io.Reader
	br  *bufio.Reader
}

// inflatePool recycles DEFLATE readers across Inflate and UnpackFirst
// calls, as flatePool does writers: flate.NewReader allocates a ~40 KB
// decompressor with its 32 KB window, once per block decode and per
// header peek otherwise.
var inflatePool = sync.Pool{New: func() interface{} {
	x := new(inflater)
	x.fr = flate.NewReader(&x.src)
	x.br = bufio.NewReaderSize(x.fr, 512)
	return x
}}

// getInflater returns a pooled DEFLATE reader over data; the caller
// hands it to putInflater when done reading.
func getInflater(data []byte) *inflater {
	x := inflatePool.Get().(*inflater)
	x.src.Reset(data)
	// x.fr comes from flate.NewReader, a flate.Resetter. Its Reset
	// returns no error; should one ever, a fresh reader takes its place.
	if err := x.fr.(flate.Resetter).Reset(&x.src, nil); err != nil {
		x.fr = flate.NewReader(&x.src)
	}
	x.br.Reset(x.fr)
	return x
}

// putInflater returns x to the pool, without its hold on the data.
func putInflater(x *inflater) {
	x.src.Reset(nil)
	inflatePool.Put(x)
}

// Inflate decompresses DEFLATE data.
func Inflate(data []byte) ([]byte, error) {
	x := getInflater(data)
	out, err := io.ReadAll(x.fr)
	putInflater(x)
	if err != nil {
		return nil, fmt.Errorf("encoder: inflate: %w", err)
	}
	return out, nil
}

// Pack concatenates sections with uvarint length prefixes and DEFLATEs the
// container.
func Pack(sections ...[]byte) ([]byte, error) {
	var raw []byte
	raw = binary.AppendUvarint(raw, uint64(len(sections)))
	for _, s := range sections {
		raw = binary.AppendUvarint(raw, uint64(len(s)))
		raw = append(raw, s...)
	}
	return Deflate(raw)
}

// ErrCorrupt indicates a malformed container.
var ErrCorrupt = errors.New("encoder: corrupt container")

// maxFirstSection bounds the first-section length UnpackFirst will
// honor: the callers peek headers, which are tens of bytes, so anything
// larger is corruption and must not drive a huge allocation.
const maxFirstSection = 1 << 20

// UnpackFirst inflates just enough of a Pack container to return its
// first section — O(first section) work and memory instead of the whole
// payload, which is what lets streaming readers peek block headers
// without decoding slabs. data may be a prefix of the container as long
// as it covers the compressed bytes of the first section; on a too-short
// prefix the error wraps io.ErrUnexpectedEOF so callers can retry with a
// longer one.
func UnpackFirst(data []byte) ([]byte, error) {
	x := getInflater(data)
	defer putInflater(x)
	br := x.br
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, truncOrCorrupt(err)
	}
	if n == 0 {
		return nil, ErrCorrupt
	}
	l, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, truncOrCorrupt(err)
	}
	if l > maxFirstSection {
		return nil, ErrCorrupt
	}
	sec := make([]byte, l)
	if _, err := io.ReadFull(br, sec); err != nil {
		return nil, truncOrCorrupt(err)
	}
	return sec, nil
}

// truncOrCorrupt maps a short read to io.ErrUnexpectedEOF (retryable
// with a longer prefix) and anything else to ErrCorrupt.
func truncOrCorrupt(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("encoder: unpack first: %w", io.ErrUnexpectedEOF)
	}
	return fmt.Errorf("%w: %v", ErrCorrupt, err)
}

// maxInflateRatio bounds how many bytes one byte of DEFLATE data can
// inflate to: the format's ceiling is about 1032:1. Unpack checks each
// section length against it, so a corrupt length cannot size a huge
// allocation.
const maxInflateRatio = 1040

// Unpack reverses Pack. It inflates the sections one at a time, each
// into a buffer sized from its stored length, so a block decode
// allocates its sections and nothing more (io.ReadAll's doubling was
// about half of what a warm 128×8 decode allocated).
func Unpack(data []byte) ([][]byte, error) {
	x := getInflater(data)
	defer putInflater(x)
	limit := maxInflateRatio*uint64(len(data)) + 64
	n, err := binary.ReadUvarint(x.br)
	if err != nil {
		return nil, unpackErr(err)
	}
	// Each section costs at least a one-byte length prefix; a corrupt
	// count beyond that cannot be valid and must not drive a huge
	// preallocation.
	if n > limit {
		return nil, ErrCorrupt
	}
	sections := make([][]byte, 0, n)
	for i := uint64(0); i < n; i++ {
		l, err := binary.ReadUvarint(x.br)
		if err != nil {
			return nil, unpackErr(err)
		}
		if l > limit {
			return nil, ErrCorrupt
		}
		sec, err := readSection(x.br, int(l))
		if err != nil {
			return nil, unpackErr(err)
		}
		sections = append(sections, sec)
	}
	return sections, nil
}

// sectionPrealloc caps the buffer readSection sizes from a stored
// length before any of the section's bytes have arrived.
const sectionPrealloc = 4 << 20

// readSection reads a section of l bytes into a buffer sized from l.
// Past sectionPrealloc the buffer doubles only as bytes arrive, so a
// corrupt length costs at most twice the data actually behind it.
func readSection(r io.Reader, l int) ([]byte, error) {
	sec := make([]byte, min(l, sectionPrealloc))
	if _, err := io.ReadFull(r, sec); err != nil {
		return nil, err
	}
	for n := len(sec); n < l; n = len(sec) {
		sec = slices.Grow(sec, min(l-n, n))[:n+min(l-n, n)]
		if _, err := io.ReadFull(r, sec[n:]); err != nil {
			return nil, err
		}
	}
	return sec, nil
}

// unpackErr maps a failed read of a container: the stream ending inside
// it is ErrCorrupt, and a DEFLATE fault is an inflate error, as from
// Inflate.
func unpackErr(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return ErrCorrupt
	}
	return fmt.Errorf("encoder: inflate: %w", err)
}
