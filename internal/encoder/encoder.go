// Package encoder is the final lossless stage of the compression pipeline.
//
// Huffman-coded quantization streams and literal bytes are packed into a
// length-prefixed container and passed through DEFLATE — the stdlib
// stand-in for the ZSTD backend used in the paper (see DESIGN.md,
// substitutions). Pack takes the sections whole; a Stream takes them as
// they are produced, in fixed chunks that DEFLATE consumes on a second
// goroutine when asked, and writes the same container.
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

	"repro/internal/integrity"
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
	s := NewStream(len(sections), false)
	for _, sec := range sections {
		s.Section(len(sec))
		s.Append(sec)
	}
	return s.Close()
}

// chunkSize is the size of the chunks a Stream deflates: small enough
// that DEFLATE starts soon after a producer does, large enough that
// handing a chunk over costs little next to deflating it.
const chunkSize = 16 << 10

// maxChunks bounds the chunks of a concurrent Stream: the one being
// filled and those queued for or being deflated. A producer that gets
// this far ahead of DEFLATE waits for a chunk to come back.
const maxChunks = 4

var chunkPool = sync.Pool{New: func() any { return new([chunkSize]byte) }}

// Stream writes a Pack container as its sections are produced: the
// count, then each section's uvarint length and contents, so a section's
// length must be known before its first byte. The bytes go into chunks
// of chunkSize, and each full chunk is deflated, on a helper goroutine
// when the stream is concurrent, so that a producer and DEFLATE run at
// the same time. DEFLATE's output does not depend on how its input is
// split into writes, so Close returns exactly Pack's blob for the same
// sections, concurrent or not.
//
// A Stream also keeps the CRC32C of the section contents written so far
// (the framing excluded), which Sum returns.
type Stream struct {
	fw  *flate.Writer
	out bytes.Buffer
	// buf is the chunk being filled; buf[mark:] is section content not
	// yet in sum.
	buf  []byte
	mark int
	sum  uint32
	pfx  [binary.MaxVarintLen64]byte
	err  error
	// The concurrent stream's hand-over: full chunks go to the deflating
	// goroutine on full and come back on free; done carries its error.
	full   chan []byte
	free   chan []byte
	done   chan error
	chunks int
	closed bool
}

// NewStream starts a container of the given number of sections.
func NewStream(sections int, concurrent bool) *Stream {
	s := &Stream{fw: flatePool.Get().(*flate.Writer)}
	s.fw.Reset(&s.out)
	s.buf = chunkPool.Get().(*[chunkSize]byte)[:0]
	s.chunks = 1
	if concurrent {
		s.full = make(chan []byte, maxChunks)
		s.free = make(chan []byte, maxChunks)
		s.done = make(chan error, 1)
		go func() {
			var err error
			for b := range s.full {
				if err == nil {
					_, err = s.fw.Write(b)
				}
				s.free <- b
			}
			s.done <- err
		}()
	}
	s.frame(uint64(sections))
	return s
}

// Section starts a section of n bytes; exactly n bytes must follow
// through Append or AppendWith.
func (s *Stream) Section(n int) {
	s.frame(uint64(n))
}

// frame writes a uvarint of the framing, outside the checksum.
func (s *Stream) frame(v uint64) {
	s.sum = integrity.Update(s.sum, s.buf[s.mark:])
	for _, b := range binary.AppendUvarint(s.pfx[:0], v) {
		s.buf = append(s.buf, b)
		if len(s.buf) == cap(s.buf) {
			s.buf = s.ship(s.buf)
		}
	}
	s.mark = len(s.buf)
}

// Append appends section content. A DEFLATE error surfaces from Close.
func (s *Stream) Append(b []byte) {
	for len(b) > 0 {
		k := copy(s.buf[len(s.buf):cap(s.buf)], b)
		s.buf = s.buf[:len(s.buf)+k]
		b = b[k:]
		if len(s.buf) == cap(s.buf) {
			s.buf = s.flush(s.buf)
		}
	}
}

// AppendWith appends section content through produce, which appends to
// the chunk it is given, passes each chunk it fills to flush for an
// empty one, and returns the chunk it stops in.
func (s *Stream) AppendWith(produce func(chunk []byte, flush func(full []byte) []byte) []byte) {
	s.buf = produce(s.buf, s.flush)
	if len(s.buf) == cap(s.buf) {
		s.buf = s.flush(s.buf)
	}
}

// flush checksums the content of a full chunk and ships it.
func (s *Stream) flush(full []byte) []byte {
	s.sum = integrity.Update(s.sum, full[s.mark:])
	s.mark = 0
	return s.ship(full)
}

// ship deflates a chunk, or queues it for the deflating goroutine, and
// returns an empty chunk.
func (s *Stream) ship(b []byte) []byte {
	if s.full == nil {
		if _, err := s.fw.Write(b); err != nil && s.err == nil {
			s.err = err
		}
		return b[:0]
	}
	s.full <- b
	if s.chunks < maxChunks {
		select {
		case b = <-s.free:
		default:
			s.chunks++
			b = chunkPool.Get().(*[chunkSize]byte)[:0]
		}
	} else {
		b = <-s.free
	}
	return b[:0]
}

// Sum returns the CRC32C of the section contents written so far.
func (s *Stream) Sum() uint32 {
	s.sum = integrity.Update(s.sum, s.buf[s.mark:])
	s.mark = len(s.buf)
	return s.sum
}

// Close deflates what is left and returns the container. It stops the
// deflating goroutine of a concurrent stream; a second Close does
// nothing and returns nil, so a deferred Close releases a stream that a
// panic left open.
func (s *Stream) Close() ([]byte, error) {
	if s.closed {
		return nil, nil
	}
	s.closed = true
	if len(s.buf) > 0 {
		s.buf = s.ship(s.buf)
	}
	chunks := [][]byte{s.buf}
	if s.full != nil {
		close(s.full)
		if err := <-s.done; err != nil && s.err == nil {
			s.err = err
		}
		for len(chunks) < s.chunks {
			chunks = append(chunks, <-s.free)
		}
	}
	for _, b := range chunks {
		chunkPool.Put((*[chunkSize]byte)(b[:chunkSize]))
	}
	if err := s.fw.Close(); err != nil && s.err == nil {
		s.err = err
	}
	flatePool.Put(s.fw)
	s.fw = nil
	if s.err != nil {
		return nil, s.err
	}
	return s.out.Bytes(), nil
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
