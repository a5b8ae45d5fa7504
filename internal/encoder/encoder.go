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

// inflater is a pooled DEFLATE reader over a reusable byte source.
type inflater struct {
	src bytes.Reader
	fr  io.Reader
}

// inflatePool recycles DEFLATE readers across Inflate and UnpackFirst
// calls, as flatePool does writers: flate.NewReader allocates a ~40 KB
// decompressor with its 32 KB window, once per block decode and per
// header peek otherwise.
var inflatePool = sync.Pool{New: func() interface{} {
	x := new(inflater)
	x.fr = flate.NewReader(&x.src)
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
	br := bufio.NewReaderSize(x.fr, 512)
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

// Unpack reverses Pack.
func Unpack(data []byte) ([][]byte, error) {
	raw, err := Inflate(data)
	if err != nil {
		return nil, err
	}
	n, k := binary.Uvarint(raw)
	if k <= 0 {
		return nil, ErrCorrupt
	}
	raw = raw[k:]
	// Each section costs at least a one-byte length prefix; a corrupt
	// count beyond that cannot be valid and must not drive a huge
	// preallocation.
	if n > uint64(len(raw))+1 {
		return nil, ErrCorrupt
	}
	sections := make([][]byte, 0, n)
	for i := uint64(0); i < n; i++ {
		l, k := binary.Uvarint(raw)
		if k <= 0 || uint64(len(raw)-k) < l {
			return nil, ErrCorrupt
		}
		sections = append(sections, raw[k:k+int(l)])
		raw = raw[k+int(l):]
	}
	return sections, nil
}
