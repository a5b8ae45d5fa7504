package core

import (
	"errors"
	"fmt"

	"repro/internal/encoder"
	"repro/internal/huffman"
	"repro/internal/integrity"
	"repro/internal/quantizer"
)

// The dimension-generic decoder. Decompression replays the visit order
// and the stored bounds only — no critical point detection or bound
// derivation runs, which is why it is several times faster than
// compression. The decoders in decompress.go are thin adapters over
// decodeFixed.

// vertexOrder is the order in which the encoder visits a block's own
// vertices and the decoder replays them: one raster pass, or (two-phase
// mode) a raster over the vertices off the neighbor-facing max planes
// followed by a raster over the vertices on them. A 2D block has
// nz == 1 and no Z max plane.
//
// In both orders every in-range lower neighbor of a vertex is visited
// before it: a vertex off the max planes has no lower neighbor on one,
// and the second phase is itself a raster. predictLorenzo relies on
// this to read availability from the coordinates alone.
type vertexOrder struct {
	nx, ny, nz int
	twoPhase   bool
	maxPlane   [3]bool // a neighbor faces the max plane of axis X, Y, Z
}

// The phases walk visits: every vertex (a raster block), or the first
// or second phase of a two-phase block.
const (
	phaseAll = iota
	phaseOne
	phaseTwo
)

// phase2 reports whether own vertex (oi, oj, ok) lies on a
// neighbor-facing max plane, which a two-phase block visits last.
func (o *vertexOrder) phase2(oi, oj, ok int) bool {
	return (o.maxPlane[0] && oi == o.nx-1) ||
		(o.maxPlane[1] && oj == o.ny-1) ||
		(o.maxPlane[2] && ok == o.nz-1)
}

// walk calls visit on the own coordinates of the vertices of one phase,
// in raster order.
func (o *vertexOrder) walk(phase int, visit func(oi, oj, ok int)) {
	for ok := 0; ok < o.nz; ok++ {
		for oj := 0; oj < o.ny; oj++ {
			for oi := 0; oi < o.nx; oi++ {
				if phase == phaseAll || o.phase2(oi, oj, ok) == (phase == phaseTwo) {
					visit(oi, oj, ok)
				}
			}
		}
	}
}

// walkAll visits every vertex in the block's order.
func (o *vertexOrder) walkAll(visit func(oi, oj, ok int)) {
	if !o.twoPhase {
		o.walk(phaseAll, visit)
		return
	}
	o.walk(phaseOne, visit)
	o.walk(phaseTwo, visit)
}

// decodeFixed reconstructs the fixed-point components of a compressed
// block of the expected dimensionality (0 accepts either; the component
// count equals the dimensionality). For temporally predicted blocks
// prevOf must return the previous frame's fixed-point components; the
// adapters supply it along with their frame validation.
func decodeFixed(blob []byte, wantDim int, prevOf func(h *header) ([][]int64, error)) (*header, [][]int64, error) {
	sections, err := encoder.Unpack(blob)
	if err != nil {
		return nil, nil, err
	}
	if len(sections) != 4 {
		return nil, nil, errors.New("core: wrong section count")
	}
	var h header
	if err := h.unmarshal(sections[0]); err != nil {
		return nil, nil, err
	}
	if wantDim != 0 && h.NDim != wantDim {
		return nil, nil, fmt.Errorf("core: expected %dD block, got %dD", wantDim, h.NDim)
	}
	// Version-2 blocks checksum the header and the entropy-coded payload;
	// verify before decoding so a flipped bit — whether it lands in a
	// header field or in the payload — surfaces as a typed error, never
	// as a silently wrong field. Version-1 (seed) blocks carry no
	// checksum and decode as before.
	if h.HasCRC {
		got := h.payloadChecksum(sections[1], sections[2], sections[3])
		if got != h.PayloadCRC {
			return nil, nil, &integrity.IntegrityError{
				Container: "block", Section: "payload", Slab: -1,
				Want: h.PayloadCRC, Got: got,
			}
		}
	}
	expSyms, err := huffman.Decompress(sections[1])
	if err != nil {
		return nil, nil, fmt.Errorf("core: bound stream: %w", err)
	}
	codeSyms, err := huffman.Decompress(sections[2])
	if err != nil {
		return nil, nil, fmt.Errorf("core: code stream: %w", err)
	}
	literals := sections[3]
	nc := h.NDim
	nz := 1
	if h.NDim == 3 {
		nz = h.NZ
	}
	n, err := h.vertexCount()
	if err != nil {
		return nil, nil, err
	}
	if len(expSyms) != n || len(codeSyms) != nc*n {
		return nil, nil, errors.New("core: stream length mismatch")
	}
	var prevs [][]int64
	if h.Temporal {
		if prevs, err = prevOf(&h); err != nil {
			return nil, nil, err
		}
	}
	if err := checkStreams(expSyms, codeSyms, literals); err != nil {
		return nil, nil, err
	}
	comps := make([][]int64, nc)
	for c := range comps {
		comps[c] = make([]int64, n)
	}
	ord := vertexOrder{nx: h.NX, ny: h.NY, nz: nz, twoPhase: h.Order == orderTwoPhase,
		maxPlane: [3]bool{h.HasGhost[SideMaxX], h.HasGhost[SideMaxY], h.NDim == 3 && h.HasGhost[SideMaxZ]}}
	kth := 0
	ord.walkAll(func(oi, oj, ok int) {
		idx := (ok*h.NY+oj)*h.NX + oi
		bound := quantizer.BoundFromSym(uint8(expSyms[kth]), h.Tau)
		for c := 0; c < nc; c++ {
			sym := codeSyms[nc*kth+c]
			if sym == escapeSym {
				comps[c][idx], literals = readLiteral(literals)
				continue
			}
			var pred int64
			if h.Temporal {
				pred = prevs[c][idx]
			} else {
				pred = predictLorenzo(comps[c], h.NX, h.NY, oi, oj, ok)
			}
			comps[c][idx] = quantizer.Reconstruct(huffman.Unzigzag(sym), pred, bound)
		}
		kth++
	})
	return &h, comps, nil
}

// checkStreams rejects what the replay would otherwise misread: a bound
// symbol off the bound grid, which would decode as some other bound,
// and a literal stream shorter than the escapes in the code stream.
func checkStreams(expSyms, codeSyms []uint32, literals []byte) error {
	for _, s := range expSyms {
		if s > quantizer.MaxBoundUp+quantizer.MaxBoundDown && s != uint32(quantizer.LosslessSym) {
			return fmt.Errorf("core: corrupt bound stream: symbol %d is off the bound grid", s)
		}
	}
	escapes := 0
	for _, s := range codeSyms {
		if s == escapeSym {
			escapes++
		}
	}
	if len(literals) < 4*escapes {
		return errors.New("core: literal stream underrun")
	}
	return nil
}
