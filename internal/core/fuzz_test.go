package core

import (
	"testing"

	"repro/internal/fixed"
)

// Decoder robustness: arbitrary input bytes must produce an error, never a
// panic or a hang. Seeds include valid blobs and their mutations; `go test`
// runs the seed corpus, `go test -fuzz=FuzzDecompress2D` explores further.

func fuzzSeeds2D(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x43, 0x53, 1, 2})
	fld := smooth2D(77, 12, 10)
	tr, _ := fixed.Fit(fld.U, fld.V)
	blob, err := CompressField2D(fld, tr, Options{Tau: 0.05})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	// Truncations and bit flips of a valid blob.
	f.Add(blob[:len(blob)/2])
	mut := append([]byte(nil), blob...)
	for i := 0; i < len(mut); i += 7 {
		mut[i] ^= 0x55
	}
	f.Add(mut)
	// A whole-domain block at the pipeline's vertex floor, which decodes
	// on two goroutines under GOMAXPROCS ≥ 2.
	f.Add(pipelineSeed(f, atFloor2D))
	// A whole-domain block of two pieces (a pieced header).
	f.Add(pipelineSeed(f, twoPieces2D))
	// Version-3 section 3 faults: a residual stream short and long, a
	// flipped CRC bit, and residuals at escapeSym and past uint32.
	under, over, crcFlip, escLike := section3Faults(f, pipelineSeed(f, atFloor2D))
	f.Add(under)
	f.Add(over)
	f.Add(crcFlip)
	f.Add(escLike)
	// Version-4 flag faults: a reserved bit, and the reduced-stencil bit
	// on a temporal block.
	temporal, _, _ := temporalBase(f)
	f.Add(withFlags(f, blob, version4, 0x10))
	f.Add(withFlags(f, temporal, version4, flagReduced))
}

// pipelineSeed compresses a whole-domain field of dims with literal
// escapes; dims must reach minPipelineVertices.
func pipelineSeed(f *testing.F, dims []int) []byte {
	comps, _ := spikyField(80, dims)
	blob, _, err := Compress(dims, comps, Options{Tau: 0.05})
	if err != nil {
		f.Fatal(err)
	}
	return blob
}

func FuzzDecompress2D(f *testing.F) {
	fuzzSeeds2D(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		fld, err := Decompress2D(data)
		if err == nil && fld == nil {
			t.Fatal("nil field without error")
		}
		if fld != nil && len(fld.U) != fld.NX*fld.NY {
			t.Fatal("inconsistent field")
		}
	})
}

func fuzzSeeds3D(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x43, 0x53, 1, 3})
	fld := smooth3D(78, 8, 8, 6)
	tr, _ := fixed.Fit(fld.U, fld.V, fld.W)
	blob, err := CompressField3D(fld, tr, Options{Tau: 0.05})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)-4])
	f.Add(blob[:len(blob)/2])
	mut := append([]byte(nil), blob...)
	for i := 0; i < len(mut); i += 7 {
		mut[i] ^= 0x55
	}
	f.Add(mut)
	// A temporal blob (decoding it without a previous frame must error,
	// not panic) and a two-phase blob with ghost faces on every side.
	prev := smooth3D(79, 8, 8, 6)
	tb := block3D(fld, tr, Options{Tau: 0.05, Spec: ST2})
	tb.Prev = prev.Components()
	enc, err := NewEncoder(tb)
	if err != nil {
		f.Fatal(err)
	}
	enc.Prepare()
	enc.Run()
	tblob, err := enc.Finish()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(tblob)
	mut = append([]byte(nil), tblob...)
	for i := 3; i < len(mut); i += 11 {
		mut[i] ^= 0xA3
	}
	f.Add(mut)
	f.Add(pipelineSeed(f, atFloor3D))
	f.Add(pipelineSeed(f, twoPieces3D))
	under, over, crcFlip, escLike := section3Faults(f, pipelineSeed(f, atFloor3D))
	f.Add(under)
	f.Add(over)
	f.Add(crcFlip)
	f.Add(escLike)
	f.Add(withFlags(f, blob, version4, 0x40))
	f.Add(withFlags(f, tblob, version4, flagReduced))
}

func FuzzDecompress3D(f *testing.F) {
	fuzzSeeds3D(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		fld, err := Decompress3D(data)
		if err == nil && fld == nil {
			t.Fatal("nil field without error")
		}
		if fld != nil && len(fld.U) != fld.NX*fld.NY*fld.NZ {
			t.Fatal("inconsistent field")
		}
	})
}

// FuzzRoundTrip2D asserts the end-to-end invariants on arbitrary small
// fields: decompression inverts compression within τ everywhere. The
// relaxation is disabled because it deliberately exceeds τ where the data
// provably carries no topology; without it the L∞ bound is strict.
func FuzzRoundTrip2D(f *testing.F) {
	f.Add(uint16(5), uint16(4), int64(1), 0.05)
	f.Add(uint16(9), uint16(3), int64(42), 0.001)
	f.Fuzz(func(t *testing.T, nxr, nyr uint16, seed int64, tau float64) {
		nx := int(nxr%14) + 2
		ny := int(nyr%14) + 2
		if tau <= 0 || tau > 10 || tau != tau {
			t.Skip()
		}
		fld := smooth2D(seed, nx, ny)
		tr, err := fixed.Fit(fld.U, fld.V)
		if err != nil {
			t.Skip()
		}
		if tau < tr.Resolution() {
			// Bounds below the fixed-point resolution are rejected by
			// the encoder (found by this fuzzer).
			if _, err := CompressField2D(fld, tr, Options{Tau: tau}); err == nil {
				t.Fatal("sub-resolution Tau must be rejected")
			}
			t.Skip()
		}
		blob, err := CompressField2D(fld, tr, Options{Tau: tau, DisableRelaxation: true})
		if err != nil {
			t.Fatal(err)
		}
		dec, err := Decompress2D(blob)
		if err != nil {
			t.Fatal(err)
		}
		for i := range fld.U {
			du := float64(fld.U[i]) - float64(dec.U[i])
			dv := float64(fld.V[i]) - float64(dec.V[i])
			if du > tau || -du > tau || dv > tau || -dv > tau {
				t.Fatalf("error bound violated at %d: du=%v dv=%v tau=%v", i, du, dv, tau)
			}
		}
	})
}

// FuzzRoundTrip3D is the 3D counterpart of FuzzRoundTrip2D: the same
// within-τ invariant over the unified kernel's tetrahedral path.
func FuzzRoundTrip3D(f *testing.F) {
	f.Add(uint16(4), uint16(3), uint16(3), int64(1), 0.05)
	f.Add(uint16(5), uint16(2), uint16(4), int64(42), 0.001)
	f.Fuzz(func(t *testing.T, nxr, nyr, nzr uint16, seed int64, tau float64) {
		nx := int(nxr%6) + 2
		ny := int(nyr%6) + 2
		nz := int(nzr%6) + 2
		if tau <= 0 || tau > 10 || tau != tau {
			t.Skip()
		}
		fld := smooth3D(seed, nx, ny, nz)
		tr, err := fixed.Fit(fld.U, fld.V, fld.W)
		if err != nil {
			t.Skip()
		}
		if tau < tr.Resolution() {
			if _, err := CompressField3D(fld, tr, Options{Tau: tau}); err == nil {
				t.Fatal("sub-resolution Tau must be rejected")
			}
			t.Skip()
		}
		blob, err := CompressField3D(fld, tr, Options{Tau: tau, DisableRelaxation: true})
		if err != nil {
			t.Fatal(err)
		}
		dec, err := Decompress3D(blob)
		if err != nil {
			t.Fatal(err)
		}
		for i := range fld.U {
			du := float64(fld.U[i]) - float64(dec.U[i])
			dv := float64(fld.V[i]) - float64(dec.V[i])
			dw := float64(fld.W[i]) - float64(dec.W[i])
			if du > tau || -du > tau || dv > tau || -dv > tau || dw > tau || -dw > tau {
				t.Fatalf("error bound violated at %d: du=%v dv=%v dw=%v tau=%v", i, du, dv, dw, tau)
			}
		}
	})
}
