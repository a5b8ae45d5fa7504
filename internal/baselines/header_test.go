package baselines

import (
	"encoding/binary"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/encoder"
	"repro/internal/huffman"
)

// planar2DHeader hand-builds a baseline header that declares a 2D
// stream of 4×3 points but carries nz = 3.
func planar2DHeader(magic uint16) []byte {
	head := binary.LittleEndian.AppendUint16(nil, magic)
	head = append(head, 2)
	for _, d := range []uint64{4, 3, 3} {
		head = binary.AppendUvarint(head, d)
	}
	return head
}

// TestDecodersReject2DStreamWithPlanes feeds each decoder a stream whose
// 2D header claims three planes, with a payload sized for all of them
// (2 components × 36 points). Decoding it as 4×3 would silently drop two
// of the planes; the header is corrupt and must be rejected.
func TestDecodersReject2DStreamWithPlanes(t *testing.T) {
	zeros := huffman.Compress(make([]uint32, 72))

	szHead := binary.LittleEndian.AppendUint64(planar2DHeader(szMagic), 0) // Abs
	sz, err := encoder.Pack(szHead, zeros, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Precision 0, Accuracy 0: every block keeps zero bit planes, so the
	// payload is one 7-bit exponent per block (one 4×4 block per component).
	zfpHead := append(planar2DHeader(zfpMagic), 0)
	zfpHead = binary.LittleEndian.AppendUint64(zfpHead, 0)
	var bits bitstream.Writer
	bits.WriteBits(63, 7)
	bits.WriteBits(63, 7)
	zfp, err := encoder.Pack(zfpHead, bits.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	fpHead := append(planar2DHeader(fpMagic), 16) // Precision
	fp, err := encoder.Pack(fpHead, zeros, nil)
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name  string
		codec Codec
		blob  []byte
	}{
		{"sz", SZLike{}, sz},
		{"zfp", ZFPLike{}, zfp},
		{"fpzip", FPZIPLike{}, fp},
	} {
		if dims, comps, err := c.codec.Decompress(c.blob); err == nil {
			t.Errorf("%s: 2D stream with nz = 3 decoded to dims %v with %d-point components", c.name, dims, len(comps[0]))
		}
	}
}

// TestCompressRejectsBadShape checks the shape contract of Compress: one
// component per dimension, each with one value per grid point.
func TestCompressRejectsBadShape(t *testing.T) {
	f := smooth2D(20, 8, 6)
	for _, c := range []struct {
		name  string
		dims  []int
		comps [][]float32
	}{
		{"3 dims, 2 components", []int{8, 6, 1}, f.Components()},
		{"2 dims, 1 component", []int{8, 6}, f.Components()[:1]},
		{"short component", []int{8, 6}, [][]float32{f.U, f.V[:47]}},
		{"4 dims", []int{8, 6, 1, 1}, [][]float32{f.U, f.V, f.U, f.V}},
	} {
		for _, codec := range []Codec{SZLike{Abs: 0.01}, ZFPLike{Precision: 12}, FPZIPLike{Precision: 16}} {
			if _, err := codec.Compress(c.dims, c.comps); err == nil {
				t.Errorf("%T %s: want an error", codec, c.name)
			}
		}
	}
}
