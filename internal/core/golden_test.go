package core_test

// Golden byte-identity corpus for the compression kernel. The testdata
// under testdata/golden was produced by the pre-refactor (seed) engines;
// the kernel refactor must reproduce every stream byte for byte and every
// decoded field bit for bit, which pins the on-disk format, the SoS
// consistency, and the zero-FP/FN/FT guarantees across refactors. The
// .stats files pin the encoder counters (relaxed vertices, speculation
// trials, ...) as well, so a derivation reordering that keeps the bytes
// must also keep exactly the same decisions.
//
// Regenerate (only when the format intentionally changes) with:
//
//	go test ./internal/core/ -run TestGolden -update
//
// and explain the format change in the commit message.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/fixed"
	"repro/internal/mpi"
	"repro/internal/parallel"
	"repro/internal/shm"
	"repro/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden testdata")

// goldenField2D builds a deterministic 2D field: smooth trigonometric
// flow (which carries critical points) plus LCG noise (which exercises
// escapes and speculation failures). No math/rand, so the corpus is
// reproducible independent of the standard library's generator.
func goldenField2D(seed uint64, nx, ny int) *field.Field2D {
	f := field.NewField2D(nx, ny)
	rnd := lcg(seed)
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			x, y := float64(i)*0.37, float64(j)*0.29
			idx := j*nx + i
			f.U[idx] = float32(math.Sin(x)*math.Cos(y)) + 0.1*rnd()
			f.V[idx] = float32(math.Cos(x)*math.Sin(y)) + 0.1*rnd()
		}
	}
	return f
}

func goldenField3D(seed uint64, nx, ny, nz int) *field.Field3D {
	f := field.NewField3D(nx, ny, nz)
	rnd := lcg(seed)
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				x, y, z := float64(i)*0.41, float64(j)*0.31, float64(k)*0.23
				idx := (k*ny+j)*nx + i
				f.U[idx] = float32(math.Sin(x)*math.Cos(y)) + 0.1*rnd()
				f.V[idx] = float32(math.Cos(y)*math.Sin(z)) + 0.1*rnd()
				f.W[idx] = float32(math.Cos(z)*math.Sin(x)) + 0.1*rnd()
			}
		}
	}
	return f
}

func lcg(s uint64) func() float32 {
	return func() float32 {
		s = s*6364136223846793005 + 1442695040888963407
		return float32(int32(s>>33)) / float32(1<<31)
	}
}

// evolve2D derives the "next frame" for the temporal cases: a small
// deterministic drift of the base field.
func evolve2D(f *field.Field2D) *field.Field2D {
	g := field.NewField2D(f.NX, f.NY)
	for i := range f.U {
		g.U[i] = f.U[i] + 0.01*float32(math.Sin(float64(i)*0.13))
		g.V[i] = f.V[i] + 0.01*float32(math.Cos(float64(i)*0.17))
	}
	return g
}

func evolve3D(f *field.Field3D) *field.Field3D {
	g := field.NewField3D(f.NX, f.NY, f.NZ)
	for i := range f.U {
		g.U[i] = f.U[i] + 0.01*float32(math.Sin(float64(i)*0.13))
		g.V[i] = f.V[i] + 0.01*float32(math.Cos(float64(i)*0.17))
		g.W[i] = f.W[i] + 0.01*float32(math.Sin(float64(i)*0.19))
	}
	return g
}

type goldenCase struct {
	name string
	run  func(t *testing.T) goldenResult
}

// goldenResult is what one golden case produces: the compressed streams
// (one per rank), the decoded components, and the encoder Stats summed
// over the ranks.
type goldenResult struct {
	blobs   [][]byte
	decoded [][]float32
	stats   core.Stats
}

func goldenCases() []goldenCase {
	const (
		nx2, ny2      = 23, 17
		nx3, ny3, nz3 = 11, 9, 8
		tau           = 0.02
	)
	cases := []goldenCase{}

	// Plain single-node compression across the speculation ladder.
	for _, spec := range []core.Speculation{core.NoSpec, core.ST1, core.ST2, core.ST3, core.ST4} {
		spec := spec
		cases = append(cases, goldenCase{
			name: "2d-plain-" + spec.String(),
			run: func(t *testing.T) goldenResult {
				f := goldenField2D(11, nx2, ny2)
				tr := mustFit(t, f.U, f.V)
				blob, st, err := core.CompressBlock(core.Block{Dims: []int{nx2, ny2}, Comps: f.Components(),
					Transform: tr, Opts: core.Options{Tau: tau, Spec: spec}})
				if err != nil {
					t.Fatal(err)
				}
				dec, err := core.Decompress2D(blob)
				if err != nil {
					t.Fatal(err)
				}
				return goldenResult{[][]byte{blob}, [][]float32{dec.U, dec.V}, st}
			},
		}, goldenCase{
			name: "3d-plain-" + spec.String(),
			run: func(t *testing.T) goldenResult {
				f := goldenField3D(13, nx3, ny3, nz3)
				tr := mustFit(t, f.U, f.V, f.W)
				blob, st, err := core.CompressBlock(core.Block{Dims: []int{nx3, ny3, nz3}, Comps: f.Components(),
					Transform: tr, Opts: core.Options{Tau: tau, Spec: spec}})
				if err != nil {
					t.Fatal(err)
				}
				dec, err := core.Decompress3D(blob)
				if err != nil {
					t.Fatal(err)
				}
				return goldenResult{[][]byte{blob}, [][]float32{dec.U, dec.V, dec.W}, st}
			},
		})
	}

	// Temporal prediction against a previous frame.
	cases = append(cases, goldenCase{
		name: "2d-temporal",
		run: func(t *testing.T) goldenResult {
			prev := goldenField2D(21, nx2, ny2)
			cur := evolve2D(prev)
			tr := mustFit(t, cur.U, cur.V)
			blob, st, err := core.CompressBlock(core.Block{
				Dims: []int{nx2, ny2}, Comps: cur.Components(), Prev: prev.Components(),
				Transform: tr, Opts: core.Options{Tau: tau, Spec: core.ST2},
			})
			if err != nil {
				t.Fatal(err)
			}
			_, dec, err := core.DecompressWithPrev(blob, prev.Dims(), prev.Components())
			if err != nil {
				t.Fatal(err)
			}
			return goldenResult{[][]byte{blob}, dec, st}
		},
	}, goldenCase{
		name: "3d-temporal",
		run: func(t *testing.T) goldenResult {
			prev := goldenField3D(23, nx3, ny3, nz3)
			cur := evolve3D(prev)
			tr := mustFit(t, cur.U, cur.V, cur.W)
			blob, st, err := core.CompressBlock(core.Block{
				Dims: []int{nx3, ny3, nz3}, Comps: cur.Components(), Prev: prev.Components(),
				Transform: tr, Opts: core.Options{Tau: tau, Spec: core.ST2},
			})
			if err != nil {
				t.Fatal(err)
			}
			_, dec, err := core.DecompressWithPrev(blob, prev.Dims(), prev.Components())
			if err != nil {
				t.Fatal(err)
			}
			return goldenResult{[][]byte{blob}, dec, st}
		},
	})

	// Lossless-border block carved out of a larger global domain (global
	// placement exercises the SoS GlobalID path).
	cases = append(cases, goldenCase{
		name: "2d-border",
		run: func(t *testing.T) goldenResult {
			f := goldenField2D(31, nx2, ny2)
			tr := mustFit(t, f.U, f.V)
			blob, st, err := core.CompressBlock(core.Block{
				Dims: []int{nx2, ny2}, Comps: f.Components(),
				Transform: tr, Opts: core.Options{Tau: tau, Spec: core.ST1},
				Origin: []int{3, 5}, Global: []int{64, 64},
				Neighbor:       [6]bool{true, true, false, true},
				LosslessBorder: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			dec, err := core.Decompress2D(blob)
			if err != nil {
				t.Fatal(err)
			}
			return goldenResult{[][]byte{blob}, [][]float32{dec.U, dec.V}, st}
		},
	}, goldenCase{
		name: "3d-border",
		run: func(t *testing.T) goldenResult {
			f := goldenField3D(33, nx3, ny3, nz3)
			tr := mustFit(t, f.U, f.V, f.W)
			blob, st, err := core.CompressBlock(core.Block{
				Dims: []int{nx3, ny3, nz3}, Comps: f.Components(),
				Transform: tr, Opts: core.Options{Tau: tau, Spec: core.ST1},
				Origin: []int{2, 4, 6}, Global: []int{32, 32, 32},
				Neighbor:       [6]bool{true, false, true, true, false, true},
				LosslessBorder: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			dec, err := core.Decompress3D(blob)
			if err != nil {
				t.Fatal(err)
			}
			return goldenResult{[][]byte{blob}, [][]float32{dec.U, dec.V, dec.W}, st}
		},
	})

	// Two-phase (ratio-oriented) distributed runs: per-rank streams and
	// the reassembled global field.
	cases = append(cases, goldenCase{
		name: "2d-twophase",
		run: func(t *testing.T) goldenResult {
			f := goldenField2D(41, 2*nx2, 2*ny2)
			tr := mustFit(t, f.U, f.V)
			grid := []int{2, 2}
			res, err := parallel.CompressDistributed(f.Dims(), f.Components(), grid, tr,
				core.Options{Tau: tau, Spec: core.ST2}, parallel.RatioOriented, mpi.Config{})
			if err != nil {
				t.Fatal(err)
			}
			dec, _, err := parallel.DecompressDistributed(res.Blobs, f.Dims(), grid, mpi.Config{})
			if err != nil {
				t.Fatal(err)
			}
			return goldenResult{res.Blobs, dec, res.EncStats}
		},
	}, goldenCase{
		name: "3d-twophase",
		run: func(t *testing.T) goldenResult {
			f := goldenField3D(43, 2*nx3, 2*ny3, nz3)
			tr := mustFit(t, f.U, f.V, f.W)
			grid := []int{2, 2, 1}
			res, err := parallel.CompressDistributed(f.Dims(), f.Components(), grid, tr,
				core.Options{Tau: tau, Spec: core.ST2}, parallel.RatioOriented, mpi.Config{})
			if err != nil {
				t.Fatal(err)
			}
			dec, _, err := parallel.DecompressDistributed(res.Blobs, f.Dims(), grid, mpi.Config{})
			if err != nil {
				t.Fatal(err)
			}
			return goldenResult{res.Blobs, dec, res.EncStats}
		},
	})

	// Whole-domain blocks large enough to sweep in slow-axis pieces
	// (three in 2D, two in 3D): the pieced visit order, its seams and the
	// piece-start predictor, pinned at any core count.
	cases = append(cases, goldenCase{
		name: "2d-pieces-ST3",
		run: func(t *testing.T) goldenResult {
			f := goldenField2D(71, 160, 3*core.MinPieceVertices/160+1)
			tr := mustFit(t, f.U, f.V)
			blob, st, err := core.CompressBlock(core.Block{Dims: f.Dims(), Comps: f.Components(),
				Transform: tr, Opts: core.Options{Tau: tau, Spec: core.ST3}})
			if err != nil {
				t.Fatal(err)
			}
			if k := piecesOf(t, blob); k != 3 {
				t.Fatalf("%d pieces, want 3", k)
			}
			_, dec, err := core.Decompress(blob)
			if err != nil {
				t.Fatal(err)
			}
			return goldenResult{[][]byte{blob}, dec, st}
		},
	}, goldenCase{
		name: "3d-pieces-ST4",
		run: func(t *testing.T) goldenResult {
			f := goldenField3D(73, 32, 32, 2*core.MinPieceVertices/(32*32))
			tr := mustFit(t, f.U, f.V, f.W)
			blob, st, err := core.CompressBlock(core.Block{Dims: f.Dims(), Comps: f.Components(),
				Transform: tr, Opts: core.Options{Tau: tau, Spec: core.ST4}})
			if err != nil {
				t.Fatal(err)
			}
			if k := piecesOf(t, blob); k != 2 {
				t.Fatalf("%d pieces, want 2", k)
			}
			_, dec, err := core.Decompress(blob)
			if err != nil {
				t.Fatal(err)
			}
			return goldenResult{[][]byte{blob}, dec, st}
		},
	})

	// Slab containers of the shared-memory pipeline: the version-3
	// container bytes (index, per-slab blobs, CRCs) are pinned whole, so
	// the slab decomposition, its two-phase seams and the container
	// framing cannot drift. Workers and Window never change the bytes.
	cases = append(cases, goldenCase{
		name: "2d-shm-container",
		run: func(t *testing.T) goldenResult {
			f := goldenField2D(51, 2*nx2, 2*ny2)
			tr := mustFit(t, f.U, f.V)
			res, err := shm.Compress(field.Mem2D(f), tr, core.Options{Tau: tau, Spec: core.ST3},
				shm.Options{Slabs: 4, Window: 2, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			dec := field.NewField2D(f.NX, f.NY)
			if err := shm.Decompress(res.Blob, 2, field.Mem2D(dec)); err != nil {
				t.Fatal(err)
			}
			return goldenResult{[][]byte{res.Blob}, [][]float32{dec.U, dec.V}, res.Stats}
		},
	}, goldenCase{
		name: "3d-shm-container",
		run: func(t *testing.T) goldenResult {
			f := goldenField3D(53, nx3, ny3, nz3)
			tr := mustFit(t, f.U, f.V, f.W)
			res, err := shm.Compress(field.Mem3D(f), tr, core.Options{Tau: tau, Spec: core.ST1},
				shm.Options{Slabs: 3, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			dec := field.NewField3D(f.NX, f.NY, f.NZ)
			if err := shm.Decompress(res.Blob, 2, field.Mem3D(dec)); err != nil {
				t.Fatal(err)
			}
			return goldenResult{[][]byte{res.Blob}, [][]float32{dec.U, dec.V, dec.W}, res.Stats}
		},
	})

	// A temporally predicted archive series: three frames, each predicted
	// from the previous decompressed frame under the first frame's
	// transform. The series reports no Stats, so the encoder counters are
	// read back from telemetry.
	cases = append(cases, goldenCase{
		name: "2d-series-temporal",
		run: func(t *testing.T) goldenResult {
			frames := []*field.Field2D{goldenField2D(61, nx2, ny2)}
			for len(frames) < 3 {
				frames = append(frames, evolve2D(frames[len(frames)-1]))
			}
			tel := telemetry.New()
			var buf bytes.Buffer
			sw := archive.NewStreamWriter(&buf)
			series := archive.NewSeries(sw)
			for _, f := range frames {
				if err := series.Append(f.Dims(), f.Components(), core.Options{Tau: tau, Spec: core.ST2, Tel: tel}); err != nil {
					t.Fatal(err)
				}
			}
			if err := sw.Close(); err != nil {
				t.Fatal(err)
			}
			sr, err := archive.OpenStream(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
			if err != nil {
				t.Fatal(err)
			}
			_, dec, err := archive.DecodeSeries(sr)
			if err != nil {
				t.Fatal(err)
			}
			var decoded [][]float32
			for _, comps := range dec {
				decoded = append(decoded, comps...)
			}
			c := tel.Snapshot().Counters
			const p = "core.2d.st2."
			st := core.Stats{
				Vertices: int(c[p+"vertices"]), Lossless: int(c[p+"lossless"]),
				Relaxed: int(c[p+"relaxed"]), SpecTrials: int(c[p+"spec_trials"]),
				SpecFails: int(c[p+"spec_fails"]), SpecCutoffs: int(c[p+"spec_cutoffs"]),
				Literals: int(c[p+"literal_escapes"]),
			}
			return goldenResult{[][]byte{buf.Bytes()}, decoded, st}
		},
	})
	return cases
}

func mustFit(t *testing.T, comps ...[]float32) fixed.Transform {
	t.Helper()
	tr, err := fixed.Fit(comps...)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// packBlobs frames the per-rank streams of one case into a single golden
// file: uvarint count, then uvarint length + bytes per blob.
func packBlobs(blobs [][]byte) []byte {
	out := binary.AppendUvarint(nil, uint64(len(blobs)))
	for _, b := range blobs {
		out = binary.AppendUvarint(out, uint64(len(b)))
		out = append(out, b...)
	}
	return out
}

// hashDecoded digests the decoded components as little-endian float32
// bits, pinning the decoder output exactly (not within epsilon).
func hashDecoded(decoded [][]float32) string {
	h := sha256.New()
	var buf [4]byte
	for _, comp := range decoded {
		for _, v := range comp {
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGolden(t *testing.T) {
	dir := filepath.Join("testdata", "golden")
	if *updateGolden {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range goldenCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			res := c.run(t)
			got := packBlobs(res.blobs)
			sum := hashDecoded(res.decoded)
			stats := formatStats(res.stats)
			binPath := filepath.Join(dir, c.name+".bin")
			sumPath := filepath.Join(dir, c.name+".sum")
			statsPath := filepath.Join(dir, c.name+".stats")
			if *updateGolden {
				if err := os.WriteFile(binPath, got, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(sumPath, []byte(sum+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(statsPath, []byte(stats), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(binPath)
			if err != nil {
				t.Fatalf("missing golden stream (run with -update to regenerate): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("compressed stream differs from golden %s (len got=%d want=%d)", binPath, len(got), len(want))
			}
			wantSum, err := os.ReadFile(sumPath)
			if err != nil {
				t.Fatalf("missing golden digest: %v", err)
			}
			if sum != string(bytes.TrimSpace(wantSum)) {
				t.Errorf("decoded field digest differs from golden %s", sumPath)
			}
			wantStats, err := os.ReadFile(statsPath)
			if err != nil {
				t.Fatalf("missing golden stats: %v", err)
			}
			if stats != string(wantStats) {
				t.Errorf("encoder Stats differ from golden %s:\ngot:\n%swant:\n%s", statsPath, stats, wantStats)
			}
		})
	}
}

// formatStats renders the encoder counters one "Name value" line each,
// the layout of the golden .stats files.
func formatStats(s core.Stats) string {
	return fmt.Sprintf("Vertices %d\nLossless %d\nRelaxed %d\nSpecTrials %d\nSpecFails %d\nSpecCutoffs %d\nLiterals %d\n",
		s.Vertices, s.Lossless, s.Relaxed, s.SpecTrials, s.SpecFails, s.SpecCutoffs, s.Literals)
}

// TestGoldenDecodeFromDisk re-decodes the stored golden streams directly,
// so a refactored decoder is checked against seed-produced bytes even if
// the encoder changed in lockstep.
func TestGoldenDecodeFromDisk(t *testing.T) {
	if *updateGolden {
		t.Skip("regenerating")
	}
	data, err := os.ReadFile(filepath.Join("testdata", "golden", "3d-plain-NoSpec.bin"))
	if err != nil {
		t.Fatal(err)
	}
	blobs, err := unpackBlobs(data)
	if err != nil || len(blobs) != 1 {
		t.Fatalf("bad golden container: %v", err)
	}
	dec, err := core.Decompress3D(blobs[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := hashDecoded([][]float32{dec.U, dec.V, dec.W}); got == "" {
		t.Fatal("empty digest")
	}
	data2, err := os.ReadFile(filepath.Join("testdata", "golden", "2d-plain-NoSpec.bin"))
	if err != nil {
		t.Fatal(err)
	}
	blobs2, err := unpackBlobs(data2)
	if err != nil || len(blobs2) != 1 {
		t.Fatalf("bad golden container: %v", err)
	}
	if _, err := core.Decompress2D(blobs2[0]); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenV1Decode decodes the frozen version-1 corpus under
// testdata/golden-v1 — streams written before the payload-checksum format
// bump — and pins the decoded fields against the v1 digests. This is the
// backward-compatibility guarantee: pre-checksum blobs must keep decoding
// bit for bit even though newly written blobs carry version 2 headers.
func TestGoldenV1Decode(t *testing.T) {
	const (
		nx2, ny2      = 23, 17
		nx3, ny3, nz3 = 11, 9, 8
	)
	type v1Case struct {
		name   string
		decode func(t *testing.T, blobs [][]byte) [][]float32
	}
	one2D := func(t *testing.T, blobs [][]byte) [][]float32 {
		t.Helper()
		if len(blobs) != 1 {
			t.Fatalf("want 1 blob, got %d", len(blobs))
		}
		dec, err := core.Decompress2D(blobs[0])
		if err != nil {
			t.Fatal(err)
		}
		return [][]float32{dec.U, dec.V}
	}
	one3D := func(t *testing.T, blobs [][]byte) [][]float32 {
		t.Helper()
		if len(blobs) != 1 {
			t.Fatalf("want 1 blob, got %d", len(blobs))
		}
		dec, err := core.Decompress3D(blobs[0])
		if err != nil {
			t.Fatal(err)
		}
		return [][]float32{dec.U, dec.V, dec.W}
	}
	cases := []v1Case{}
	for _, spec := range []core.Speculation{core.NoSpec, core.ST1, core.ST2, core.ST3, core.ST4} {
		cases = append(cases,
			v1Case{"2d-plain-" + spec.String(), one2D},
			v1Case{"3d-plain-" + spec.String(), one3D})
	}
	cases = append(cases,
		v1Case{"2d-temporal", func(t *testing.T, blobs [][]byte) [][]float32 {
			prev := goldenField2D(21, nx2, ny2)
			_, dec, err := core.DecompressWithPrev(blobs[0], prev.Dims(), prev.Components())
			if err != nil {
				t.Fatal(err)
			}
			return dec
		}},
		v1Case{"3d-temporal", func(t *testing.T, blobs [][]byte) [][]float32 {
			prev := goldenField3D(23, nx3, ny3, nz3)
			_, dec, err := core.DecompressWithPrev(blobs[0], prev.Dims(), prev.Components())
			if err != nil {
				t.Fatal(err)
			}
			return dec
		}},
		v1Case{"2d-border", one2D},
		v1Case{"3d-border", one3D},
		v1Case{"2d-twophase", func(t *testing.T, blobs [][]byte) [][]float32 {
			dec, _, err := parallel.DecompressDistributed(blobs, []int{2 * nx2, 2 * ny2}, []int{2, 2}, mpi.Config{})
			if err != nil {
				t.Fatal(err)
			}
			return dec
		}},
		v1Case{"3d-twophase", func(t *testing.T, blobs [][]byte) [][]float32 {
			dec, _, err := parallel.DecompressDistributed(blobs, []int{2 * nx3, 2 * ny3, nz3}, []int{2, 2, 1}, mpi.Config{})
			if err != nil {
				t.Fatal(err)
			}
			return dec
		}})
	dir := filepath.Join("testdata", "golden-v1")
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join(dir, c.name+".bin"))
			if err != nil {
				t.Fatal(err)
			}
			blobs, err := unpackBlobs(data)
			if err != nil || len(blobs) == 0 {
				t.Fatalf("bad v1 container: %v", err)
			}
			decoded := c.decode(t, blobs)
			wantSum, err := os.ReadFile(filepath.Join(dir, c.name+".sum"))
			if err != nil {
				t.Fatal(err)
			}
			if got := hashDecoded(decoded); got != string(bytes.TrimSpace(wantSum)) {
				t.Errorf("v1 decoded field digest differs from %s.sum", c.name)
			}
		})
	}
}

// TestGoldenLosslessBorderContainersDecode decodes the frozen shm
// containers under testdata/golden-v3-lossless-border, written while
// every slab stored its border planes losslessly (before two-phase
// seams), and pins the decoded fields against their digests: containers
// already on disk keep decoding bit for bit.
func TestGoldenLosslessBorderContainersDecode(t *testing.T) {
	dir := filepath.Join("testdata", "golden-v3-lossless-border")
	for _, c := range []struct {
		name string
		dims []int
	}{
		{"2d-shm-container", []int{2 * 23, 2 * 17}},
		{"3d-shm-container", []int{11, 9, 8}},
	} {
		t.Run(c.name, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join(dir, c.name+".bin"))
			if err != nil {
				t.Fatal(err)
			}
			blobs, err := unpackBlobs(data)
			if err != nil || len(blobs) != 1 {
				t.Fatalf("bad golden container: %v", err)
			}
			n := 1
			for _, d := range c.dims {
				n *= d
			}
			comps := make([][]float32, len(c.dims))
			for i := range comps {
				comps[i] = make([]float32, n)
			}
			if err := shm.Decompress(blobs[0], 2, field.MemOf(c.dims, comps)); err != nil {
				t.Fatal(err)
			}
			wantSum, err := os.ReadFile(filepath.Join(dir, c.name+".sum"))
			if err != nil {
				t.Fatal(err)
			}
			if got := hashDecoded(comps); got != string(bytes.TrimSpace(wantSum)) {
				t.Errorf("decoded field digest differs from %s.sum", c.name)
			}
		})
	}
}

func unpackBlobs(data []byte) ([][]byte, error) {
	n, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, errTruncated
	}
	data = data[k:]
	blobs := make([][]byte, 0, n)
	for i := uint64(0); i < n; i++ {
		ln, k := binary.Uvarint(data)
		if k <= 0 || uint64(len(data)-k) < ln {
			return nil, errTruncated
		}
		blobs = append(blobs, data[k:k+int(ln)])
		data = data[k+int(ln):]
	}
	return blobs, nil
}

var errTruncated = errTruncatedT{}

type errTruncatedT struct{}

func (errTruncatedT) Error() string { return "golden: truncated container" }
