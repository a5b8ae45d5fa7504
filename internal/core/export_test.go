package core

import "repro/internal/encoder"

// BlockPieces reads the slow-axis piece count from a block's header: 1
// for any block not swept in pieces.
func BlockPieces(blob []byte) (int, error) {
	sec, err := encoder.UnpackFirst(blob)
	if err != nil {
		return 0, err
	}
	var h header
	if err := h.unmarshal(sec); err != nil {
		return 0, err
	}
	return max(1, h.Pieces), nil
}

// SetPieceHook installs fn as the sweep's task hook, which runs as a
// task of a phase starts, and returns the function that removes it.
func SetPieceHook(fn func(phase, task int)) (restore func()) {
	pieceHook = fn
	return func() { pieceHook = nil }
}

// MinPieceVertices is one piece's share of a whole-domain block.
const MinPieceVertices = minPieceVertices

// The phases a piece hook sees: a pieced block's pieces, then its seams.
const (
	PhaseOne = phaseOne
	PhaseTwo = phaseTwo
)
