package archive

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/cp"
	"repro/internal/field"
	"repro/internal/fixed"
)

func step2D(t int, n int) *field.Field2D {
	f := field.NewField2D(n, n)
	cx := 4 + float64(t)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			idx := f.Idx(i, j)
			f.U[idx] = float32(-(float64(j) - float64(n)/2))
			f.V[idx] = float32(float64(i) - cx)
		}
	}
	return f
}

// writeV3 wraps blobs in a version-3 container.
func writeV3(t testing.TB, blobs [][]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	for _, b := range blobs {
		if _, err := sw.AppendBlob(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// openBytes indexes an in-memory container.
func openBytes(data []byte) (*StreamReader, error) {
	return OpenStream(bytes.NewReader(data), int64(len(data)))
}

// compress2D compresses each field spatially into a standalone blob.
func compress2D(t testing.TB, opts core.Options, fields ...*field.Field2D) [][]byte {
	t.Helper()
	blobs := make([][]byte, len(fields))
	for i, f := range fields {
		blob, _, err := core.Compress(f.Dims(), f.Components(), opts)
		if err != nil {
			t.Fatal(err)
		}
		blobs[i] = blob
	}
	return blobs
}

// slabBlobs splits step2D(0, 16) into two 16×8 slabs compressed the
// way the shm pipeline writes a slab container: lossless borders, each
// slab placed in the global field with its neighbor side flagged.
func slabBlobs(t testing.TB) [][]byte {
	t.Helper()
	f := step2D(0, 16)
	tr, err := fixed.Fit(f.Components()...)
	if err != nil {
		t.Fatal(err)
	}
	blobs := make([][]byte, 2)
	for i := range blobs {
		lo, hi := i*16*8, (i+1)*16*8
		blk := core.Block{
			Dims: []int{16, 8}, Comps: [][]float32{f.U[lo:hi], f.V[lo:hi]},
			Transform: tr, Opts: core.Options{Tau: 0.1},
			Origin: []int{0, 8 * i}, Global: f.Dims(), LosslessBorder: true,
		}
		blk.Neighbor[core.SideMinY] = i > 0
		blk.Neighbor[core.SideMaxY] = i == 0
		if blobs[i], _, err = core.CompressBlock(blk); err != nil {
			t.Fatal(err)
		}
	}
	return blobs
}

// decodeStep loads and decodes one spatially predicted 2D step.
func decodeStep(t *testing.T, sr *StreamReader, step int) (*field.Field2D, error) {
	t.Helper()
	blob, err := sr.ReadBlobInto(nil, step)
	if err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
	return core.Decompress2D(blob)
}

func TestArchiveRoundTrip(t *testing.T) {
	const steps = 5
	var fields []*field.Field2D
	for s := 0; s < steps; s++ {
		fields = append(fields, step2D(s, 16))
	}
	sr, err := openBytes(writeV3(t, compress2D(t, core.Options{Tau: 0.1}, fields...)))
	if err != nil {
		t.Fatal(err)
	}
	if sr.Steps() != steps {
		t.Fatalf("Steps = %d", sr.Steps())
	}
	for s, orig := range fields {
		g, err := decodeStep(t, sr, s)
		if err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
		for i := range orig.U {
			if math.Abs(float64(orig.U[i])-float64(g.U[i])) > 0.1 {
				t.Fatalf("step %d error bound violated", s)
			}
		}
	}
}

func TestArchivePreservesTopologyPerStep(t *testing.T) {
	fields := make([]*field.Field2D, 4)
	for s := range fields {
		fields[s] = step2D(s, 20)
	}
	sr, err := openBytes(writeV3(t, compress2D(t, core.Options{Tau: 0.2, Spec: core.ST2}, fields...)))
	if err != nil {
		t.Fatal(err)
	}
	for s, f := range fields {
		tr, _ := fixed.Fit(f.U, f.V)
		g, err := decodeStep(t, sr, s)
		if err != nil {
			t.Fatal(err)
		}
		rep := cp.Compare(cp.DetectField2D(f, tr), cp.DetectField2D(g, tr))
		if !rep.Preserved() {
			t.Fatalf("step %d: %v", s, rep)
		}
	}
}

func TestArchive3D(t *testing.T) {
	f := field.NewField3D(8, 8, 8)
	for k := 0; k < 8; k++ {
		for j := 0; j < 8; j++ {
			for i := 0; i < 8; i++ {
				idx := f.Idx(i, j, k)
				f.U[idx] = float32(i) - 3.5
				f.V[idx] = float32(j) - 3.5
				f.W[idx] = float32(k) - 3.5
			}
		}
	}
	blob, _, err := core.Compress(f.Dims(), f.Components(), core.Options{Tau: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	sr, err := openBytes(writeV3(t, [][]byte{blob}))
	if err != nil {
		t.Fatal(err)
	}
	dims, dec, err := DecodeSeries(sr)
	if err != nil || len(dec) != 1 || !slices.Equal(dims, f.Dims()) {
		t.Fatalf("decode: %d frames of dims %v, %v", len(dec), dims, err)
	}
	// A series that mixes a 2D and a 3D step is rejected, not decoded
	// step by step.
	f2 := step2D(0, 8)
	blob2, _, err := core.Compress(f2.Dims(), f2.Components(), core.Options{Tau: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if sr, err = openBytes(writeV3(t, [][]byte{blob2, blob})); err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeSeries(sr); !errors.Is(err, ErrDimsChanged) {
		t.Errorf("2D then 3D step: err = %v, want ErrDimsChanged", err)
	}
}

// TestDecodeSeriesCorruptSlabContainer pins that a slab container is
// not read as a time series: its slabs have equal dims, so only their
// headers' border and neighbor flags tell them from steps.
func TestDecodeSeriesCorruptSlabContainer(t *testing.T) {
	sr, err := openBytes(writeV3(t, slabBlobs(t)))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeSeries(sr); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("slab container: err = %v, want ErrCorrupt", err)
	}
}

func TestReaderErrors(t *testing.T) {
	if _, err := openBytes(nil); err == nil {
		t.Error("empty input must fail")
	}
	if _, err := openBytes([]byte("SCARx")); err == nil {
		t.Error("bad version must fail")
	}
	if _, err := openBytes([]byte("SCAR")); err == nil {
		t.Error("magic without a version must fail")
	}
	data := writeV3(t, [][]byte{{1, 2, 3}})
	sr, err := openBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.ReadBlobInto(nil, 5); err == nil {
		t.Error("out-of-range step must fail")
	}
	if _, err := sr.ReadBlobInto(nil, -1); err == nil {
		t.Error("negative step must fail")
	}
	// Truncated payload.
	if _, err := openBytes(data[:len(data)-2]); err == nil {
		t.Error("truncated payload must fail")
	}
}

// TestTypedSentinels pins the error contract at the archive boundary:
// callers must be able to distinguish failure modes with errors.Is
// rather than by matching message strings.
func TestTypedSentinels(t *testing.T) {
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	s := NewSeries(sw)
	f0, f1 := step2D(0, 16), step2D(1, 12)
	if err := s.Append([]int{f0.NX, f0.NY}, f0.Components(), core.Options{Tau: 0.1}); err != nil {
		t.Fatal(err)
	}
	err := s.Append([]int{f1.NX, f1.NY}, f1.Components(), core.Options{Tau: 0.1})
	if !errors.Is(err, ErrDimsChanged) {
		t.Errorf("mid-series dimension change: got %v, want ErrDimsChanged", err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	sr, err := openBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.ReadBlobInto(nil, 7); !errors.Is(err, ErrStepRange) {
		t.Errorf("out-of-range step: got %v, want ErrStepRange", err)
	}
	if _, err := sr.ReadBlobInto(nil, -1); !errors.Is(err, ErrStepRange) {
		t.Errorf("negative step: got %v, want ErrStepRange", err)
	}
	if _, err := openBytes([]byte("SCARx")); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad version: got %v, want ErrCorrupt", err)
	}
}

func TestEmptyArchive(t *testing.T) {
	sr, err := openBytes(writeV3(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	if sr.Steps() != 0 {
		t.Errorf("Steps = %d", sr.Steps())
	}
}
