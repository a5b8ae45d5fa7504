package core

import (
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"repro/internal/encoder"
	"repro/internal/fixed"
	"repro/internal/huffman"
	"repro/internal/integrity"
	"repro/internal/quantizer"
)

// reseal rewrites a version-3 block after edit has changed its header
// or its sections' bytes, with the CRC at the front of section 3
// recomputed, so the decoder meets the edit itself rather than a
// checksum mismatch.
func reseal(t testing.TB, blob []byte, edit func(h *header, secs [][]byte)) []byte {
	t.Helper()
	secs, err := encoder.Unpack(blob)
	if err != nil {
		t.Fatal(err)
	}
	var h header
	if err := h.unmarshal(secs[0]); err != nil {
		t.Fatal(err)
	}
	for i := range secs {
		secs[i] = slices.Clone(secs[i])
	}
	edit(&h, secs)
	secs[0] = h.marshal()
	binary.LittleEndian.PutUint32(secs[3], integrity.Checksum(secs[0], secs[1], secs[2], secs[3][4:]))
	out, err := encoder.Pack(secs...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// blockParts is a version-3 block taken apart: its header, its bound
// symbols, the lossy vertices' code symbols, and its literal and
// residual streams.
type blockParts struct {
	h    header
	exp  []uint32
	code []uint32
	lits []byte
	res  []int64
}

func partsOf(t testing.TB, blob []byte) blockParts {
	t.Helper()
	secs, err := encoder.Unpack(blob)
	if err != nil {
		t.Fatal(err)
	}
	var p blockParts
	if err := p.h.unmarshal(secs[0]); err != nil {
		t.Fatal(err)
	}
	if p.exp, err = huffman.Decompress(secs[1]); err != nil {
		t.Fatal(err)
	}
	if p.code, err = huffman.Decompress(secs[2]); err != nil {
		t.Fatal(err)
	}
	lits, res, err := splitSection3(secs)
	if err != nil {
		t.Fatal(err)
	}
	p.lits = slices.Clone(lits)
	for len(res) > 0 {
		r, rest, ok := readResidual(res)
		if !ok {
			t.Fatal("malformed residual stream")
		}
		p.res, res = append(p.res, r), rest
	}
	return p
}

// seal writes the parts as a version-3 block.
func (p *blockParts) seal(t testing.TB) []byte {
	t.Helper()
	var res []byte
	for _, r := range p.res {
		res = appendResidual(res, r)
	}
	blob, err := writeBlock(&p.h, false, p.exp, [][]uint32{p.code}, [][]byte{p.lits}, [][]byte{res})
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// reclass keeps the streams in step with bound symbols edited from old:
// a vertex that became bound 0 trades its code symbols (and the literals
// of their escapes) for zero residuals, and one that stopped being bound
// 0 trades its residuals for zero codes.
func (p *blockParts) reclass(old []uint32) {
	nc := p.h.NDim
	lossless := uint32(quantizer.LosslessSym)
	var code []uint32
	var lits []byte
	var res []int64
	oc, ol, or := p.code, p.lits, p.res
	for pos, e := range p.exp {
		if old[pos] == lossless {
			if e == lossless {
				res = append(res, or[:nc]...)
			} else {
				code = append(code, make([]uint32, nc)...)
			}
			or = or[nc:]
			continue
		}
		for _, s := range oc[:nc] {
			if s == escapeSym {
				if e != lossless {
					lits = append(lits, ol[:4]...)
				}
				ol = ol[4:]
			}
		}
		if e == lossless {
			res = append(res, make([]int64, nc)...)
		} else {
			code = append(code, oc[:nc]...)
		}
		oc = oc[nc:]
	}
	p.code, p.lits, p.res = code, lits, res
}

// craft rewrites a block after an edit of its header or bound symbols.
func craft(t testing.TB, blob []byte, edit func(h *header, expSyms []uint32)) []byte {
	t.Helper()
	p := partsOf(t, blob)
	old := slices.Clone(p.exp)
	edit(&p.h, p.exp)
	p.reclass(old)
	return p.seal(t)
}

func craftBase(t *testing.T) ([]byte, [][]float32) {
	t.Helper()
	f := smooth2D(91, 12, 10)
	blob, _, err := Compress(f.Dims(), f.Components(), Options{Tau: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	_, want, err := Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	// The unedited rewrite decodes to the same field, so a failure below
	// is the edit's doing.
	_, got, err := Decompress(craft(t, blob, func(*header, []uint32) {}))
	if err != nil {
		t.Fatal(err)
	}
	for c := range want {
		if !slices.Equal(got[c], want[c]) {
			t.Fatal("the unedited rewrite decodes differently")
		}
	}
	return blob, want
}

// TestDecodeRejectsUnknownOrder: an Order byte other than raster,
// two-phase or pieces is a malformed header, not a raster block; so is a
// pieced header with no piece count. Both are *OrderErrors.
func TestDecodeRejectsUnknownOrder(t *testing.T) {
	blob, _ := craftBase(t)
	for _, order := range []orderMode{orderPieces, 7, 255} {
		bad := craft(t, blob, func(h *header, _ []uint32) { h.Order = order })
		var oe *OrderError
		if _, _, err := Decompress(bad); !errors.Is(err, errHeader) || !errors.As(err, &oe) {
			t.Errorf("order %d: Decompress err = %v, want an *OrderError", order, err)
		}
		if _, err := PeekBlock(bad); !errors.Is(err, errHeader) || !errors.As(err, &oe) {
			t.Errorf("order %d: PeekBlock err = %v, want an *OrderError", order, err)
		}
	}
}

// withFlags rewrites blob as a block of the given version whose header
// flags byte also has the bits of set, with the CRC recomputed. The
// flags byte ends a version-3 or -4 header.
func withFlags(t testing.TB, blob []byte, version uint8, set byte) []byte {
	t.Helper()
	secs, err := encoder.Unpack(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i := range secs {
		secs[i] = slices.Clone(secs[i])
	}
	secs[0][2] = version
	secs[0][len(secs[0])-1] |= set
	binary.LittleEndian.PutUint32(secs[3], integrity.Checksum(secs[0], secs[1], secs[2], secs[3][4:]))
	out, err := encoder.Pack(secs...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// temporalBase compresses a small temporal block and returns it with its
// previous frame.
func temporalBase(t testing.TB) (blob []byte, dims []int, prev [][]float32) {
	t.Helper()
	f, p := smooth2D(93, 12, 10), smooth2D(94, 12, 10)
	tr, err := fixed.Fit(f.U, f.V, p.U, p.V)
	if err != nil {
		t.Fatal(err)
	}
	b := block2D(f, tr, Options{Tau: 0.05})
	b.Prev = p.Components()
	if blob, _, err = CompressBlock(b); err != nil {
		t.Fatal(err)
	}
	return blob, f.Dims(), b.Prev
}

// TestDecodeRejectsV4FlagFaults: a version-4 header that sets a reserved
// flag bit, or the reduced-stencil bit on a temporal block, is a
// *FlagError; a version-3 header ignores every bit past its two.
func TestDecodeRejectsV4FlagFaults(t *testing.T) {
	spatial, _ := craftBase(t)
	temporal, dims, prev := temporalBase(t)
	for _, tc := range []struct {
		name    string
		blob    []byte
		version uint8
		set     byte
		bad     bool
	}{
		{"reserved bit", spatial, version4, 0x10, true},
		{"top bit", spatial, version4, 0x80, true},
		{"reduced temporal", temporal, version4, flagReduced, true},
		{"reduced spatial", spatial, version4, flagReduced, false},
		{"slab", spatial, version4, flagSlab, false},
		{"version 3, reserved bits", spatial, version3, 0xf0, false},
		{"version 3, reduced temporal", temporal, version3, flagReduced | flagSlab, false},
	} {
		blob := withFlags(t, tc.blob, tc.version, tc.set)
		_, _, err := DecompressWithPrev(blob, dims, prev)
		_, perr := PeekBlock(blob)
		var fe *FlagError
		switch {
		case tc.bad && (!errors.As(err, &fe) || !errors.Is(err, errHeader)):
			t.Errorf("%s: Decompress err = %v, want a *FlagError", tc.name, err)
		case tc.bad && !errors.As(perr, &fe):
			t.Errorf("%s: PeekBlock err = %v, want a *FlagError", tc.name, perr)
		case !tc.bad && (err != nil || perr != nil):
			t.Errorf("%s: Decompress %v, PeekBlock %v", tc.name, err, perr)
		}
	}
}

// TestDecodeRejectsPiecesOffTheDims: a pieced header must hold 2 …
// nSlow/2 pieces of a whole block; any other count, or a neighbor side
// or lossless border, is an *OrderError. Counts that fit decode, and a
// raster header's piece field is not stored.
func TestDecodeRejectsPiecesOffTheDims(t *testing.T) {
	blob, _ := craftBase(t) // 12×10: 5 pieces at most
	for _, tc := range []struct {
		name string
		edit func(h *header)
		ok   bool
	}{
		{"2 pieces", func(h *header) { h.Order, h.Pieces = orderPieces, 2 }, true},
		{"5 pieces", func(h *header) { h.Order, h.Pieces = orderPieces, 5 }, true},
		{"1 piece", func(h *header) { h.Order, h.Pieces = orderPieces, 1 }, false},
		{"6 pieces", func(h *header) { h.Order, h.Pieces = orderPieces, 6 }, false},
		{"huge count", func(h *header) { h.Order, h.Pieces = orderPieces, 1<<40 }, false},
		{"a neighbor side", func(h *header) { h.Order, h.Pieces, h.HasGhost[SideMaxY] = orderPieces, 2, true }, false},
		{"lossless border", func(h *header) { h.Order, h.Pieces, h.Border = orderPieces, 2, true }, false},
		{"raster with a count", func(h *header) { h.Pieces = 9 }, true},
	} {
		edited := craft(t, blob, func(h *header, _ []uint32) { tc.edit(h) })
		_, _, err := Decompress(edited)
		var oe *OrderError
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case !tc.ok && !errors.As(err, &oe):
			t.Errorf("%s: err = %v, want an *OrderError", tc.name, err)
		}
	}
}

// TestDecodeRejectsOffGridBoundSymbols: a bound symbol outside
// [0, MaxBoundUp+MaxBoundDown] ∪ {LosslessSym} is a corrupt stream. Such
// symbols used to wrap (256 and up) or decode as bound 0 (61–254).
func TestDecodeRejectsOffGridBoundSymbols(t *testing.T) {
	blob, want := craftBase(t)
	top := uint32(quantizer.MaxBoundUp + quantizer.MaxBoundDown)
	for _, sym := range []uint32{top + 1, 100, 254, 256, 256 + 3, 1 << 20} {
		bad := craft(t, blob, func(_ *header, exp []uint32) { exp[len(exp)/2] = sym })
		if _, _, err := Decompress(bad); err == nil {
			t.Errorf("bound symbol %d decoded without error", sym)
		}
	}
	// The grid's ends and the lossless sentinel still decode.
	for _, sym := range []uint32{0, top, uint32(quantizer.LosslessSym)} {
		ok := craft(t, blob, func(_ *header, exp []uint32) { exp[len(exp)/2] = sym })
		_, got, err := Decompress(ok)
		if err != nil {
			t.Errorf("bound symbol %d: %v", sym, err)
		} else if len(got) != len(want) {
			t.Errorf("bound symbol %d: %d components", sym, len(got))
		}
	}
}

// section3Faults crafts version-3 blocks from base, a raster block with
// bound-0 vertices, whose section 3 is at fault: a residual short, one
// too many, a CRC with a flipped bit, and (valid) residuals whose zigzag
// is escapeSym and one past uint32, at the first two residual slots.
func section3Faults(t testing.TB, base []byte) (under, over, crcFlip, escLike []byte) {
	p := partsOf(t, base)
	if len(p.res) < 2 {
		t.Fatalf("the base block has %d residuals", len(p.res))
	}
	short := p
	short.res = p.res[:len(p.res)-1]
	under = short.seal(t)
	long := p
	long.res = append(slices.Clone(p.res), 7)
	over = long.seal(t)
	crcFlip = reseal(t, base, func(_ *header, secs [][]byte) {})
	secs, err := encoder.Unpack(crcFlip)
	if err != nil {
		t.Fatal(err)
	}
	secs[3][1] ^= 0x10
	if crcFlip, err = encoder.Pack(secs...); err != nil {
		t.Fatal(err)
	}
	esc := p
	esc.res = slices.Clone(p.res)
	esc.res[0], esc.res[1] = int64(escapeSym/2), 1<<40
	escLike = esc.seal(t)
	return under, over, crcFlip, escLike
}

// TestDecodeSection3Faults: a residual stream cut short or running long
// and a flipped CRC bit are typed errors; residuals whose zigzag equals
// escapeSym or exceeds uint32 are values like any other, never escapes.
func TestDecodeSection3Faults(t *testing.T) {
	comps, _ := spikyField(420, atFloor2D)
	base, _, err := Compress(atFloor2D, comps, Options{Tau: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	under, over, crcFlip, escLike := section3Faults(t, base)
	for _, procs := range []int{1, 2} {
		if _, err := decodeAt(procs, under, nil, nil); !errors.Is(err, errResidualUnderrun) {
			t.Errorf("GOMAXPROCS %d: residual underrun: err = %v", procs, err)
		}
		if _, err := decodeAt(procs, over, nil, nil); !errors.Is(err, errStreamOverrun) {
			t.Errorf("GOMAXPROCS %d: residual overrun: err = %v", procs, err)
		}
		var ie *integrity.IntegrityError
		if _, err := decodeAt(procs, crcFlip, nil, nil); !errors.As(err, &ie) {
			t.Errorf("GOMAXPROCS %d: flipped CRC: err = %v, want an *integrity.IntegrityError", procs, err)
		}
	}
	// The first two residuals are the first bound-0 vertex's, whose
	// prediction the edit leaves alone: its values move by the change.
	p := partsOf(t, base)
	pos := slices.Index(p.exp, uint32(quantizer.LosslessSym))
	_, want, err := decodeFixed(base, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer want.release()
	_, got, err := decodeFixed(escLike, 0, nil)
	if err != nil {
		t.Fatalf("residuals at escapeSym and past uint32: %v", err)
	}
	defer got.release()
	for c, r := range []int64{int64(escapeSym / 2), 1 << 40} {
		if d := got.comps[c][pos] - want.comps[c][pos]; d != r-p.res[c] {
			t.Errorf("component %d: the residual moved the value by %d, want %d", c, d, r-p.res[c])
		}
	}
}

// TestDecodeTemporalNeedsEveryComponent: a previous frame with the right
// dims but too few components is an error, not an index panic.
func TestDecodeTemporalNeedsEveryComponent(t *testing.T) {
	f, prev := smooth2D(92, 12, 10), smooth2D(93, 12, 10)
	tr, err := fixed.Fit(f.U, f.V, prev.U, prev.V)
	if err != nil {
		t.Fatal(err)
	}
	blk := block2D(f, tr, Options{Tau: 0.05})
	blk.Prev = prev.Components()
	blob, _, err := CompressBlock(blk)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecompressWithPrev(blob, prev.Dims(), prev.Components()); err != nil {
		t.Fatal(err)
	}
	for _, comps := range [][][]float32{{}, {prev.U}} {
		if _, _, err := DecompressWithPrev(blob, prev.Dims(), comps); err == nil {
			t.Errorf("%d previous components decoded a 2-component block", len(comps))
		}
	}
}
