package core

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/encoder"
	"repro/internal/fixed"
	"repro/internal/huffman"
	"repro/internal/quantizer"
)

// rewriteV1 rewrites a block as a version-1 (no-CRC) block after edit
// has changed its header or payload sections, so the decoder meets the
// edit itself rather than a checksum mismatch.
func rewriteV1(t *testing.T, blob []byte, edit func(h *header, secs [][]byte)) []byte {
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
	hb := h.marshal()
	hb[2] = version1
	out, err := encoder.Pack(hb[:len(hb)-4], secs[1], secs[2], secs[3])
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// craftV1 is rewriteV1 for an edit of the header or the bound symbols.
func craftV1(t *testing.T, blob []byte, edit func(h *header, expSyms []uint32)) []byte {
	t.Helper()
	return rewriteV1(t, blob, func(h *header, secs [][]byte) {
		expSyms, err := huffman.Decompress(secs[1])
		if err != nil {
			t.Fatal(err)
		}
		edit(h, expSyms)
		secs[1] = huffman.Compress(expSyms)
	})
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
	// The unedited v1 rewrite decodes to the same field, so a failure
	// below is the edit's doing.
	_, got, err := Decompress(craftV1(t, blob, func(*header, []uint32) {}))
	if err != nil {
		t.Fatal(err)
	}
	for c := range want {
		if !slices.Equal(got[c], want[c]) {
			t.Fatal("v1 rewrite decodes differently")
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
		bad := craftV1(t, blob, func(h *header, _ []uint32) { h.Order = order })
		var oe *OrderError
		if _, _, err := Decompress(bad); !errors.Is(err, errHeader) || !errors.As(err, &oe) {
			t.Errorf("order %d: Decompress err = %v, want an *OrderError", order, err)
		}
		if _, err := PeekBlock(bad); !errors.Is(err, errHeader) || !errors.As(err, &oe) {
			t.Errorf("order %d: PeekBlock err = %v, want an *OrderError", order, err)
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
		edited := craftV1(t, blob, func(h *header, _ []uint32) { tc.edit(h) })
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
		bad := craftV1(t, blob, func(_ *header, exp []uint32) { exp[len(exp)/2] = sym })
		if _, _, err := Decompress(bad); err == nil {
			t.Errorf("bound symbol %d decoded without error", sym)
		}
	}
	// The grid's ends and the lossless sentinel still decode.
	for _, sym := range []uint32{0, top, uint32(quantizer.LosslessSym)} {
		ok := craftV1(t, blob, func(_ *header, exp []uint32) { exp[len(exp)/2] = sym })
		_, got, err := Decompress(ok)
		if err != nil {
			t.Errorf("bound symbol %d: %v", sym, err)
		} else if len(got) != len(want) {
			t.Errorf("bound symbol %d: %d components", sym, len(got))
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
