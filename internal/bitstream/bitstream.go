// Package bitstream provides LSB-first bit-level readers and writers used
// by the Huffman coder and the ZFP-like bit-plane codec.
package bitstream

import (
	"errors"
	"fmt"
)

// Writer accumulates bits LSB-first into a byte slice.
// The zero value is ready to use.
type Writer struct {
	buf  []byte
	acc  uint64
	nacc uint
}

// WriteBits writes the low n bits of v (n <= 57).
//
// The width limit is an encoder-side invariant: every caller passes a
// compile-time or clamped width, never stream-derived data, so exceeding
// it is a programming error and panics rather than returning an error.
func (w *Writer) WriteBits(v uint64, n uint) {
	if n > 57 {
		panic("bitstream: WriteBits supports at most 57 bits per call")
	}
	w.acc |= (v & ((1 << n) - 1)) << w.nacc
	w.nacc += n
	for w.nacc >= 8 {
		w.buf = append(w.buf, byte(w.acc))
		w.acc >>= 8
		w.nacc -= 8
	}
}

// WriteBit writes a single bit.
func (w *Writer) WriteBit(b uint) {
	w.WriteBits(uint64(b&1), 1)
}

// Bytes flushes any partial byte and returns the accumulated buffer.
func (w *Writer) Bytes() []byte {
	if w.nacc > 0 {
		w.buf = append(w.buf, byte(w.acc))
		w.acc = 0
		w.nacc = 0
	}
	return w.buf
}

// Len returns the number of complete bytes written so far (excluding a
// pending partial byte).
func (w *Writer) Len() int { return len(w.buf) }

// BitLen returns the total number of bits written so far.
func (w *Writer) BitLen() int { return len(w.buf)*8 + int(w.nacc) }

// Reset clears the writer for reuse.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.acc = 0
	w.nacc = 0
}

// ErrShortStream is returned when a read runs past the end of the data.
var ErrShortStream = errors.New("bitstream: read past end of stream")

// ErrWidth is returned when a read requests more bits than one call
// supports — on the decode side the width can come from a corrupt
// stream, so this is an error, not a panic.
var ErrWidth = errors.New("bitstream: at most 57 bits per read")

// Reader reads bits LSB-first from a byte slice.
type Reader struct {
	buf  []byte
	pos  int // next byte index
	acc  uint64
	nacc uint
}

// NewReader returns a Reader over data.
func NewReader(data []byte) *Reader {
	return &Reader{buf: data}
}

// ReadBits reads n bits (n <= 57); wider requests return ErrWidth.
func (r *Reader) ReadBits(n uint) (uint64, error) {
	if n > 57 {
		return 0, ErrWidth
	}
	for r.nacc < n {
		if r.pos >= len(r.buf) {
			return 0, fmt.Errorf("%w (wanted %d bits)", ErrShortStream, n)
		}
		r.acc |= uint64(r.buf[r.pos]) << r.nacc
		r.pos++
		r.nacc += 8
	}
	v := r.acc & ((1 << n) - 1)
	r.acc >>= n
	r.nacc -= n
	return v, nil
}

// ReadBit reads a single bit.
func (r *Reader) ReadBit() (uint, error) {
	v, err := r.ReadBits(1)
	return uint(v), err
}

// Peek returns the next n bits without consuming them, zero-padded past
// the end of the stream, and how many of them are real (m <= n). One
// Peek holds at least 57 bits, so m < n also when a wider n is asked
// for with more of the stream left.
func (r *Reader) Peek(n uint) (v uint64, m uint) {
	if r.nacc < n {
		r.refill()
	}
	return r.acc & (1<<n - 1), min(n, r.nacc)
}

// Skip consumes n bits (n <= 57). Skipping no more than the real bits
// of the last Peek cannot fail; past the end of the stream it returns
// ErrShortStream and consumes nothing.
func (r *Reader) Skip(n uint) error {
	if r.nacc < n {
		r.refill()
		if r.nacc < n {
			return ErrShortStream
		}
	}
	r.acc >>= n
	r.nacc -= n
	return nil
}

// refill loads whole bytes into the accumulator until it holds more
// than 56 bits or the stream ends. Bits above nacc stay zero, which is
// the zero padding Peek promises.
func (r *Reader) refill() {
	for r.nacc <= 56 && r.pos < len(r.buf) {
		r.acc |= uint64(r.buf[r.pos]) << r.nacc
		r.pos++
		r.nacc += 8
	}
}
