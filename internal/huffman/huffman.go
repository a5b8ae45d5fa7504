// Package huffman implements a canonical Huffman coder over non-negative
// integer alphabets. It is the first lossless stage of the compression
// pipeline: quantization codes and error-bound exponents are Huffman-coded
// before the byte stream is handed to DEFLATE (package encoder).
//
// Encoding is split in two. NewPlan counts a stream, which may come in
// segments, and builds its canonical code and the exact length of its
// block, so a caller can frame the block behind a length prefix before
// any code bit exists; Plan.Encode then writes the block 64 code bits at
// a time into fixed chunks it hands to a flush, so the block can stream
// into a DEFLATE writer while it is produced. Compress is a plan encoded
// into one buffer. Symbols below denseSyms (all bound exponents and
// virtually every zigzagged quantization code) are counted and encoded
// through flat array codebooks drawn from a sync.Pool; only outlier
// symbols fall back to maps. The emitted bytes are those of the original
// bit-at-a-time, map-based coder — table storage and word writes are
// internal details, the canonical code assignment is not.
//
// Decoding is table-driven: the next 11 bits resolve every code of at
// most 11 bits through a lookup table built by replaying the canonical
// first-code-per-length walk, so corrupt length tables decode exactly
// as they do through the walk. Longer codes, and codes that would run
// past the end of the stream, take the walk itself. The code bits are
// read a 64-bit word at a time until the last 8 bytes. Open and
// DecodeInto split a decode so a caller can check the symbol count
// before it sizes the output, and trail the decode from another
// goroutine.
package huffman

import (
	"cmp"
	"container/heap"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/bitstream"
	"repro/internal/safedim"
)

// maxCodeLen bounds code lengths so codes always fit a single
// bitstream write. Frequencies are rescaled if the tree gets deeper.
const maxCodeLen = 48

// denseSyms bounds the array-backed fast tables. Symbols < denseSyms are
// indexed directly; larger ones (escape-range outliers) go through a map.
const denseSyms = 4096

// denseTables is the pooled scratch of one Plan: the frequency
// histogram and the encode codebook for the dense symbol range.
type denseTables struct {
	freq  [denseSyms]uint64
	codes [denseSyms]code
}

var densePool = sync.Pool{New: func() interface{} { return new(denseTables) }}

// symLen is one (symbol, code length) table entry.
type symLen struct {
	sym uint32
	len uint8
}

// Compress encodes syms into a self-contained block (count, code length
// table, padded code bits): a Plan encoded into one buffer of the
// plan's exact length.
func Compress(syms []uint32) []byte {
	p := NewPlan(syms)
	return p.Encode(make([]byte, 0, p.Len()), nil, syms)
}

// Plan is the code of one symbol stream, built before any code bit is
// written: the symbol count and code length table (the block's head),
// the canonical codes, and the number of code bits, which together give
// the block's exact length. A caller framing the block behind a length
// prefix can write the prefix first and then stream the block. The
// stream may come in segments, coded as their concatenation.
type Plan struct {
	head   []byte
	dt     *denseTables
	sparse map[uint32]code
	bits   uint64
}

// NewPlan counts the symbols of the stream segs and builds their
// canonical code.
func NewPlan(segs ...[]uint32) *Plan {
	dt := densePool.Get().(*denseTables)

	// Count frequencies: flat array for the dense range, map only when an
	// outlier actually occurs.
	var sparseFreq map[uint32]uint64
	n := 0
	for _, syms := range segs {
		n += len(syms)
		for _, s := range syms {
			if s < denseSyms {
				dt.freq[s]++
			} else {
				if sparseFreq == nil {
					sparseFreq = make(map[uint32]uint64)
				}
				sparseFreq[s]++
			}
		}
	}

	// Collect the nonzero symbols in increasing order (outliers are all
	// >= denseSyms, so they sort after the dense scan).
	nz := make([]symLen, 0, 64)
	freqs := make([]uint64, 0, 64)
	for s, f := range dt.freq[:] {
		if f != 0 {
			nz = append(nz, symLen{sym: uint32(s)})
			freqs = append(freqs, f)
			dt.freq[s] = 0 // leave the pooled histogram clean
		}
	}
	if sparseFreq != nil {
		base := len(nz)
		for s := range sparseFreq {
			nz = append(nz, symLen{sym: s})
		}
		sort.Slice(nz[base:], func(i, j int) bool { return nz[base+i].sym < nz[base+j].sym })
		for _, e := range nz[base:] {
			freqs = append(freqs, sparseFreq[e.sym])
		}
	}

	// codeLengths rescales the frequencies it is given; the bit count
	// needs the true ones.
	counts := slices.Clone(freqs)
	codeLengths(nz, freqs)
	p := &Plan{dt: dt}
	p.sparse = canonicalCodes(nz, &dt.codes, nil)
	for i, e := range nz {
		p.bits += counts[i] * uint64(e.len)
	}

	p.head = binary.AppendUvarint(p.head, uint64(n))
	// Serialize the nonzero code lengths as (delta symbol, length) pairs.
	p.head = binary.AppendUvarint(p.head, uint64(len(nz)))
	prev := uint32(0)
	for _, e := range nz {
		p.head = binary.AppendUvarint(p.head, uint64(e.sym-prev))
		p.head = append(p.head, e.len)
		prev = e.sym
	}
	return p
}

// Len returns the length of the block the plan encodes.
func (p *Plan) Len() int { return len(p.head) + int((p.bits+7)/8) }

// Encode writes the block for segs, the segments the plan was built
// from, by appending to chunk: the head, then the code bits, 64 at a
// time, least significant first, and the last partial word's bytes.
// Whenever the chunk is full (its length reaches its capacity), Encode
// hands it to flush, which returns the next chunk, empty and with room
// to spare; with flush nil the chunk must hold the whole block. Encode
// returns the chunk it stopped in. A plan encodes once: Encode returns
// its tables to the pool.
func (p *Plan) Encode(chunk []byte, flush func(full []byte) []byte, segs ...[]uint32) []byte {
	w := chunkWriter{buf: chunk, flush: flush}
	w.write(p.head)
	dense := &p.dt.codes
	var acc uint64
	var nacc uint
	for _, syms := range segs {
		for _, s := range syms {
			var c code
			if s < denseSyms {
				c = dense[s]
			} else {
				c = p.sparse[s]
			}
			acc |= c.bits << nacc
			nacc += uint(c.len)
			if nacc >= 64 {
				w.word(acc)
				nacc -= 64
				// The code's bits that did not fit; none when nacc is
				// 0, as a code's bits stop at its length.
				acc = c.bits >> (uint(c.len) - nacc)
			}
		}
	}
	for ; nacc > 0; nacc -= min(nacc, 8) {
		w.byte(byte(acc))
		acc >>= 8
	}
	densePool.Put(p.dt)
	p.dt, p.sparse = nil, nil
	return w.buf
}

// chunkWriter appends to a chunk and hands it to flush when full.
type chunkWriter struct {
	buf   []byte
	flush func(full []byte) []byte
}

func (w *chunkWriter) full() {
	if len(w.buf) == cap(w.buf) && w.flush != nil {
		w.buf = w.flush(w.buf)[:0]
	}
}

func (w *chunkWriter) byte(b byte) {
	w.buf = append(w.buf, b)
	w.full()
}

// word appends the 8 bytes of v, little-endian.
func (w *chunkWriter) word(v uint64) {
	if cap(w.buf)-len(w.buf) < 8 {
		for i := 0; i < 8; i++ {
			w.byte(byte(v))
			v >>= 8
		}
		return
	}
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
	w.full()
}

func (w *chunkWriter) write(b []byte) {
	for len(b) > 0 {
		if len(w.buf) == cap(w.buf) {
			// Only without a flush: a flushed chunk comes back with room.
			w.buf = append(w.buf, b...)
			return
		}
		n := copy(w.buf[len(w.buf):cap(w.buf)], b)
		w.buf = w.buf[:len(w.buf)+n]
		b = b[n:]
		w.full()
	}
}

// Decompress decodes a block produced by Compress.
func Decompress(data []byte) ([]uint32, error) {
	s, err := Open(data)
	if err != nil {
		return nil, err
	}
	out := make([]uint32, s.Len())
	if err := s.DecodeInto(out, nil, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// Stream is a block whose symbol count and code length table are
// parsed and whose code bits are not yet decoded. A caller that knows
// how many symbols the block must hold compares Len with that count
// before it sizes a buffer for DecodeInto.
type Stream struct {
	n   int
	dec *decoder
	// bits are the code bits; pos is how many of them are decoded while
	// at least 8 bytes remain, and tail reads the rest once fewer do.
	bits []byte
	pos  int
	tail *bitstream.Reader
}

// Open parses a block's symbol count and code length table. The count
// is already bounded by the block's size: every symbol costs a bit.
func Open(data []byte) (*Stream, error) {
	n, dec, bits, err := parse(data)
	if err != nil {
		return nil, err
	}
	return &Stream{n: int(n), dec: dec, bits: bits}, nil
}

// Len returns the block's symbol count.
func (s *Stream) Len() int { return s.n }

// progressStep is how many symbols DecodeInto decodes between two
// stores of its progress and two loads of its stop flag: a few
// microseconds of decoding, so a consumer trailing the decoder waits
// little and the shared cache line is written rarely.
const progressStep = 4096

// ErrStopped is DecodeInto's error when its stop flag ended the decode.
var ErrStopped = errors.New("huffman: decode stopped")

// DecodeInto decodes the stream into out, which must hold exactly Len
// symbols; a Stream decodes once, and hands its decoder back to the
// pool when DecodeInto returns, whatever the outcome. A consumer on
// another goroutine may trail the decode: when done is not nil,
// DecodeInto stores the number of symbols already in out every
// progressStep symbols and after the last, and when stop is not nil, it
// returns ErrStopped once stop is set. On an error done keeps its last
// value.
func (s *Stream) DecodeInto(out []uint32, done *atomic.Int64, stop *atomic.Bool) error {
	if s.dec == nil {
		return errors.New("huffman: stream already decoded")
	}
	defer func() {
		decoderPool.Put(s.dec)
		s.dec = nil
	}()
	if len(out) != s.n {
		return fmt.Errorf("huffman: %d-symbol buffer for a %d-symbol block", len(out), s.n)
	}
	for i := 0; i < len(out); {
		if stop != nil && stop.Load() {
			return ErrStopped
		}
		end := min(i+progressStep, len(out))
		var err error
		if i, err = s.decodeRange(out, i, end); err != nil {
			return err
		}
		if done != nil {
			done.Store(int64(i))
		}
	}
	return nil
}

// decodeRange decodes out[i:end] and returns end. While at least 8 bytes
// of code bits remain it reads them a 64-bit word at a time. A word
// holds at least 57 stream bits, and symbols are taken from it while it
// still holds need of them, enough for any walk (maxLen) and any table
// lookup (tableBits), so each resolves as it does on the reader. The
// last bytes go through the bitstream reader, where a code running past
// the end of the stream takes the walk.
func (s *Stream) decodeRange(out []uint32, i, end int) (int, error) {
	d := s.dec
	need := max(int(d.maxLen), tableBits)
	pos := s.pos
	for s.tail == nil && i < end {
		b := pos >> 3
		if b+8 > len(s.bits) {
			s.tail = bitstream.NewReader(s.bits[b:])
			// Skipping the bits already read of the first byte cannot fail.
			if err := s.tail.Skip(uint(pos & 7)); err != nil {
				return i, err
			}
			break
		}
		w := binary.LittleEndian.Uint64(s.bits[b:]) >> (pos & 7)
		for avail := 64 - pos&7; avail >= need && i < end; i++ {
			e := d.table[w&(1<<tableBits-1)]
			if e.len == 0 {
				var err error
				if e.sym, e.len, err = d.walkWord(w); err != nil {
					return i, err
				}
			}
			out[i] = e.sym
			w >>= e.len
			avail -= int(e.len)
			pos += int(e.len)
		}
	}
	s.pos = pos
	for ; i < end; i++ {
		sym, err := d.decode(s.tail)
		if err != nil {
			return i, err
		}
		out[i] = sym
	}
	return i, nil
}

// parse reads a block's symbol count and code length table and returns
// the count, a decoder for the table (from the pool) and the code bits.
func parse(data []byte) (uint64, *decoder, []byte, error) {
	n, k := binary.Uvarint(data)
	if k <= 0 {
		return 0, nil, nil, errors.New("huffman: bad count")
	}
	data = data[k:]
	// Every symbol costs at least one bit; reject counts a corrupt header
	// could not possibly back with data (prevents huge allocations).
	if n > uint64(len(data))*8+1 {
		return 0, nil, nil, errors.New("huffman: symbol count exceeds stream capacity")
	}
	nnz, k := binary.Uvarint(data)
	if k <= 0 {
		return 0, nil, nil, errors.New("huffman: bad table size")
	}
	data = data[k:]
	if nnz > uint64(len(data)) {
		return 0, nil, nil, errors.New("huffman: table size exceeds stream capacity")
	}
	dec := decoderPool.Get().(*decoder)
	list := dec.list[:0]
	prev := uint32(0)
	for i := uint64(0); i < nnz; i++ {
		d, k := binary.Uvarint(data)
		if k <= 0 || len(data) < k+1 {
			decoderPool.Put(dec)
			return 0, nil, nil, errors.New("huffman: truncated table")
		}
		sym := prev + uint32(d)
		// Deltas are nondecreasing, so a duplicate symbol (corrupt input)
		// can only repeat the previous entry; keep the last length, the
		// same resolution the map-based table applied.
		if len(list) > 0 && list[len(list)-1].sym == sym {
			list[len(list)-1].len = data[k]
		} else {
			list = append(list, symLen{sym: sym, len: data[k]})
		}
		data = data[k+1:]
		prev = sym
	}
	dec.list = list
	if err := dec.init(list); err != nil {
		decoderPool.Put(dec)
		return 0, nil, nil, err
	}
	return n, dec, data, nil
}

type code struct {
	bits uint64
	len  uint8
}

// codeLengths fills the len field of nz (sorted by symbol, parallel to
// freqs) with Huffman code lengths, rescaling frequencies until the depth
// limit is met. freqs is clobbered.
func codeLengths(nz []symLen, freqs []uint64) {
	switch len(nz) {
	case 0:
		return
	case 1:
		nz[0].len = 1
		return
	}
	for {
		buildLengths(nz, freqs)
		deep := false
		for _, e := range nz {
			if e.len > maxCodeLen {
				deep = true
				break
			}
		}
		if !deep {
			return
		}
		for i := range freqs {
			freqs[i] = freqs[i]/2 + 1
		}
	}
}

type hnode struct {
	freq        uint64
	leaf        int // index into nz, or -1
	left, right *hnode
	order       int // tie-break for determinism
}

type hheap []*hnode

func (h hheap) Len() int { return len(h) }
func (h hheap) Less(i, j int) bool {
	if h[i].freq != h[j].freq {
		return h[i].freq < h[j].freq
	}
	return h[i].order < h[j].order
}
func (h hheap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *hheap) Push(x interface{}) { *h = append(*h, x.(*hnode)) }
func (h *hheap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// buildLengths runs the Huffman merge over (nz, freqs) — nz is already in
// increasing symbol order, which fixes the deterministic tie-break — and
// writes the resulting depth of each leaf into nz[i].len. All tree nodes
// come from one backing slice (2n-1 nodes total).
func buildLengths(nz []symLen, freqs []uint64) {
	n := len(nz)
	backing := make([]hnode, safedim.MustProduct(2, n)-1)
	h := make(hheap, 0, n)
	order := 0
	for i := range nz {
		nd := &backing[order]
		*nd = hnode{freq: freqs[i], leaf: i, order: order}
		h = append(h, nd)
		order++
	}
	heap.Init(&h)
	for h.Len() > 1 {
		a := heap.Pop(&h).(*hnode)
		b := heap.Pop(&h).(*hnode)
		nd := &backing[order]
		*nd = hnode{freq: a.freq + b.freq, leaf: -1, left: a, right: b, order: order}
		heap.Push(&h, nd)
		order++
	}
	root := h[0]
	var walk func(nd *hnode, depth uint8)
	walk = func(nd *hnode, depth uint8) {
		if nd.left == nil {
			if depth == 0 {
				depth = 1
			}
			nz[nd.leaf].len = depth
			return
		}
		walk(nd.left, depth+1)
		walk(nd.right, depth+1)
	}
	walk(root, 0)
}

// canonicalCodes assigns canonical codes (shorter codes numerically first,
// ties broken by symbol order) into the dense array (and the returned
// sparse map for symbols >= denseSyms). Code bits are stored MSB-first
// within the code so decoding can proceed bit by bit.
func canonicalCodes(nz []symLen, dense *[denseSyms]code, sparse map[uint32]code) map[uint32]code {
	list := make([]symLen, len(nz))
	copy(list, nz)
	sort.Slice(list, func(i, j int) bool {
		if list[i].len != list[j].len {
			return list[i].len < list[j].len
		}
		return list[i].sym < list[j].sym
	})
	c := uint64(0)
	prevLen := uint8(0)
	for _, e := range list {
		c <<= uint(e.len - prevLen)
		cd := code{bits: reverseBits(c, e.len), len: e.len}
		if e.sym < denseSyms {
			dense[e.sym] = cd
		} else {
			if sparse == nil {
				sparse = make(map[uint32]code)
			}
			sparse[e.sym] = cd
		}
		c++
		prevLen = e.len
	}
	return sparse
}

// reverseBits reverses the low n bits of v so that an MSB-first canonical
// code can be emitted through the LSB-first bitstream writer.
func reverseBits(v uint64, n uint8) uint64 {
	var r uint64
	for i := uint8(0); i < n; i++ {
		r = (r << 1) | (v & 1)
		v >>= 1
	}
	return r
}

// tableBits is the width of the decoder's lookup table: every code of
// at most this many bits decodes with one Peek, one table read and one
// Skip. Quantization codes and bound exponents almost never need more.
const tableBits = 11

// decoder performs canonical decoding with the first-code-per-length
// method, fronted by a lookup table over the next tableBits bits.
type decoder struct {
	// For each length l: firstCode[l] is the numeric value of the first
	// canonical code of that length, and symbols[l] the symbols in order,
	// a view of backing.
	firstCode [maxCodeLen + 1]uint64
	symbols   [maxCodeLen + 1][]uint32
	backing   []uint32
	maxLen    uint8
	// list is parse's scratch for the code length table.
	list []symLen
	// table maps the next tableBits stream bits to the symbol the walk
	// resolves on them and its code length, or length 0 when the walk
	// does not resolve within tableBits bits.
	table [1 << tableBits]tableEntry
}

type tableEntry struct {
	sym uint32
	len uint8
}

// decoderPool recycles decoders across streams and decodes: a decoder
// is about 18 KB, nearly all lookup table, and every block decode opens
// two streams, so on small blocks a fresh decoder per stream costs more
// allocation than the decoded output. parse takes a decoder,
// Stream.DecodeInto returns it, and init clears what the previous table
// left.
var decoderPool = sync.Pool{New: func() any { return new(decoder) }}

// init builds the decoder for a code length table, first clearing the
// lookup table, the per-length codes and symbols and the maximum length
// an earlier table left. list is sorted in place.
func (d *decoder) init(list []symLen) error {
	d.table = [1 << tableBits]tableEntry{}
	d.firstCode = [maxCodeLen + 1]uint64{}
	d.symbols = [maxCodeLen + 1][]uint32{}
	d.maxLen = 0
	for _, e := range list {
		if e.len == 0 || e.len > maxCodeLen {
			return fmt.Errorf("huffman: invalid code length %d", e.len)
		}
		if e.len > d.maxLen {
			d.maxLen = e.len
		}
	}
	slices.SortFunc(list, func(a, b symLen) int {
		if a.len != b.len {
			return int(a.len) - int(b.len)
		}
		return cmp.Compare(a.sym, b.sym)
	})
	// After the (len, sym) sort each length's symbols are one contiguous
	// run; a single backing slice serves every per-length view.
	backing := slices.Grow(d.backing[:0], len(list))
	for _, e := range list {
		backing = append(backing, e.sym)
	}
	d.backing = backing
	c := uint64(0)
	prevLen := uint8(0)
	start := 0
	for i, e := range list {
		c <<= uint(e.len - prevLen)
		if e.len != prevLen {
			start = i
			d.firstCode[e.len] = c
		}
		d.symbols[e.len] = backing[start : i+1]
		c++
		prevLen = e.len
	}
	d.fill(0, 0, 0)
	return nil
}

// match is one step of the walk: the symbol whose length-l code has
// numeric value c, if there is one.
func (d *decoder) match(l uint8, c uint64) (uint32, bool) {
	syms := d.symbols[l]
	idx := c - d.firstCode[l]
	if len(syms) > 0 && c >= d.firstCode[l] && idx < uint64(len(syms)) {
		return syms[idx], true
	}
	return 0, false
}

// fill builds the lookup table by replaying the walk over every
// tableBits-bit prefix, depth first. After l bits the walk holds c, the
// bits read so far with the first one most significant; p holds the
// same bits as they sit in the stream, the first one least significant.
// The first length at which the walk resolves is recorded for every
// prefix that extends p, so a corrupt or oversubscribed length table
// decodes through the table exactly as it does through the walk.
func (d *decoder) fill(l uint8, c uint64, p uint32) {
	if l > 0 {
		if s, ok := d.match(l, c); ok {
			for x := p; x < 1<<tableBits; x += 1 << l {
				d.table[x] = tableEntry{sym: s, len: l}
			}
			return
		}
	}
	if l == tableBits || l == d.maxLen {
		return
	}
	d.fill(l+1, c<<1, p)
	d.fill(l+1, c<<1|1, p|1<<l)
}

// decode reads one symbol. A code the table resolves within the real
// bits left is one lookup; longer codes, and codes that would run past
// the end of the stream, take the walk.
func (d *decoder) decode(r *bitstream.Reader) (uint32, error) {
	p, m := r.Peek(tableBits)
	if e := d.table[p]; e.len != 0 && uint(e.len) <= m {
		return e.sym, r.Skip(uint(e.len))
	}
	return d.walk(r)
}

// walk decodes one symbol bit by bit, trying each code length in turn.
func (d *decoder) walk(r *bitstream.Reader) (uint32, error) {
	var c uint64
	for l := uint8(1); l <= d.maxLen; l++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		c = (c << 1) | uint64(b)
		if s, ok := d.match(l, c); ok {
			return s, nil
		}
	}
	return 0, errors.New("huffman: invalid code")
}

// walkWord is the walk over the bits of w, which holds at least maxLen
// stream bits: it returns the symbol and its code length.
func (d *decoder) walkWord(w uint64) (uint32, uint8, error) {
	var c uint64
	for l := uint8(1); l <= d.maxLen; l++ {
		c = c<<1 | w&1
		w >>= 1
		if s, ok := d.match(l, c); ok {
			return s, l, nil
		}
	}
	return 0, 0, errors.New("huffman: invalid code")
}

// Zigzag maps a signed integer to an unsigned one with small magnitudes
// first (0→0, -1→1, 1→2, ...), the standard preparation of quantization
// codes for entropy coding.
func Zigzag(v int64) uint32 {
	return uint32((v << 1) ^ (v >> 63))
}

// Unzigzag inverts Zigzag.
func Unzigzag(u uint32) int64 {
	v := int64(u)
	return (v >> 1) ^ -(v & 1)
}
