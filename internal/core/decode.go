package core

import (
	"errors"
	"fmt"

	"repro/internal/encoder"
	"repro/internal/huffman"
	"repro/internal/integrity"
	"repro/internal/quantizer"
	"repro/internal/safedim"
)

// The dimension-generic decoder. Decompression replays the visit order
// and the stored bounds only — no critical point detection or bound
// derivation runs, which is why it is several times faster than
// compression. The decoders in decompress.go are thin adapters over
// decodeFixed.

// visitOrder yields the own-coordinate vertices of a block in
// compression order: plain raster, or (two-phase mode) raster excluding
// neighbor-facing max planes followed by a raster over those planes. A
// 2D block passes nz == 1 (and every entry has k == 0).
func visitOrder(nx, ny, nz int, mode orderMode, hasMaxX, hasMaxY, hasMaxZ bool) [][3]int {
	order := make([][3]int, 0, safedim.MustProduct(nx, ny, nz))
	phase2 := func(i, j, k int) bool {
		return (hasMaxX && i == nx-1) || (hasMaxY && j == ny-1) || (hasMaxZ && k == nz-1)
	}
	if mode != orderTwoPhase {
		for k := 0; k < nz; k++ {
			for j := 0; j < ny; j++ {
				for i := 0; i < nx; i++ {
					order = append(order, [3]int{i, j, k})
				}
			}
		}
		return order
	}
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				if !phase2(i, j, k) {
					order = append(order, [3]int{i, j, k})
				}
			}
		}
	}
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				if phase2(i, j, k) {
					order = append(order, [3]int{i, j, k})
				}
			}
		}
	}
	return order
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
	comps := make([][]int64, nc)
	for c := range comps {
		comps[c] = make([]int64, n)
	}
	done := make([]bool, n)
	order := visitOrder(h.NX, h.NY, nz, h.Order,
		h.HasGhost[SideMaxX], h.HasGhost[SideMaxY], h.NDim == 3 && h.HasGhost[SideMaxZ])
	kth := 0
	for _, ov := range order {
		oi, oj, ok := ov[0], ov[1], ov[2]
		idx := (ok*h.NY+oj)*h.NX + oi
		bound := quantizer.BoundFromSym(uint8(expSyms[kth]), h.Tau)
		for c := 0; c < nc; c++ {
			sym := codeSyms[nc*kth+c]
			if sym == escapeSym {
				if len(literals) < 4 {
					return nil, nil, errors.New("core: literal stream underrun")
				}
				comps[c][idx], literals = readLiteral(literals)
				continue
			}
			var pred int64
			if h.Temporal {
				pred = prevs[c][idx]
			} else {
				pred = predictLorenzo(comps[c], done, h.NX, h.NY, oi, oj, ok)
			}
			comps[c][idx] = quantizer.Reconstruct(huffman.Unzigzag(sym), pred, bound)
		}
		done[idx] = true
		kth++
	}
	return &h, comps, nil
}
