package core

import "repro/internal/quantizer"

// Small helpers shared by the kernel, the decoders, and the adapters.
// They live here (not per engine) so both dimensions use one copy.

// escapeSym is the quantization-code symbol marking a literal escape. It
// is outside the zigzag range of valid codes (|code| < Radius).
const escapeSym = uint32(2 * quantizer.Radius)

// appendLiteral stores a fixed-point value on the literal stream as a
// little-endian 32-bit two's-complement word.
func appendLiteral(dst []byte, v int64) []byte {
	u := uint32(int32(v))
	return append(dst, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
}

// readLiteral pops one literal off the stream.
func readLiteral(src []byte) (int64, []byte) {
	u := uint32(src[0]) | uint32(src[1])<<8 | uint32(src[2])<<16 | uint32(src[3])<<24
	return int64(int32(u)), src[4:]
}

func absDiff(a, b int64) int64 {
	if a > b {
		return a - b
	}
	return b - a
}
