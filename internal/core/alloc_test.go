package core_test

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/fixed"
)

// maxSteadyAllocs is the steady-state allocation gate of one warm
// compress: the extended arrays, masks, sign plane and star buffers come
// from the kernel scratch pool, so what remains is the output (entropy
// coding, container framing), the ST4 type map and the per-call
// encoder. The kernel measured 113 (Nek ST4) and 116 (Ocean NoSpec)
// allocations per op when the gate was set.
const maxSteadyAllocs = 130

// TestSteadyStateAllocs gates the allocations per warm compress of a
// 24³ Nek ST4 and a 96×64 Ocean NoSpec block. The race detector's
// sync.Pool drops a random quarter of Puts by design, so under -race the
// compresses still run (and are checked for races) but the count is not
// a steady state and is only logged.
func TestSteadyStateAllocs(t *testing.T) {
	nek := datagen.Nek5000(24, 24, 24)
	tr3, err := fixed.Fit(nek.U, nek.V, nek.W)
	if err != nil {
		t.Fatal(err)
	}
	ocean := datagen.Ocean(96, 64)
	tr2, err := fixed.Fit(ocean.U, ocean.V)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"nek 24³ ST4", func() error {
			_, err := core.CompressField3D(nek, tr3, core.Options{Tau: 0.05, Spec: core.ST4})
			return err
		}},
		{"ocean 96×64 NoSpec", func() error {
			_, err := core.CompressField2D(ocean, tr2, core.Options{Tau: 0.05})
			return err
		}},
	} {
		if err := tc.run(); err != nil { // warm the scratch pool
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if err := tc.run(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %v allocs/op", tc.name, allocs)
		if raceEnabled {
			continue
		}
		if allocs > maxSteadyAllocs {
			t.Errorf("%s: %v allocs/op, gate %d", tc.name, allocs, maxSteadyAllocs)
		}
	}
}

// maxDecodeBytesPerVertex gates the heap bytes one warm Decompress of a
// 2D block allocates per vertex. The fixed-point components, the decoded
// symbol streams and a temporal block's previous frame come from the
// decode scratch pool, so what a decode allocates is the float output
// (8 B) and the inflated sections, with the Huffman tables and the
// container framing; it measured 10.8–11.0 B on average when the gate
// was set. A working buffer that misses the pool — a symbol stream (4 B)
// or a component (8 B) — does not fit.
const maxDecodeBytesPerVertex = 13

// TestDecompressAllocBytes gates the bytes per vertex of a warm
// Decompress of a 384×288 Ocean block: the mean of several decodes. The
// decode scratch comes from a pool whose Put every goroutine's Get sees
// (sharedPool), so no warm decode allocates it again; a collection ages
// that pool, so the collector is off while the decodes run.
func TestDecompressAllocBytes(t *testing.T) {
	ocean := datagen.Ocean(384, 288)
	blob, _, err := core.Compress(ocean.Dims(), ocean.Components(), core.Options{Tau: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	decode := func() {
		if _, _, err := core.Decompress(blob); err != nil {
			t.Fatal(err)
		}
	}
	decode() // warm
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 8
	perVertex := make([]float64, runs)
	var before, after runtime.MemStats
	mean := 0.0
	for i := range perVertex {
		runtime.ReadMemStats(&before)
		decode()
		runtime.ReadMemStats(&after)
		perVertex[i] = float64(after.TotalAlloc-before.TotalAlloc) / float64(ocean.NX*ocean.NY)
		mean += perVertex[i] / runs
	}
	t.Logf("decode: %.1f B/vertex mean (runs: %.1f)", mean, perVertex)
	if raceEnabled {
		return
	}
	if mean > maxDecodeBytesPerVertex {
		t.Errorf("decode allocates %.1f B/vertex on average, gate %d", mean, maxDecodeBytesPerVertex)
	}
}

// maxSmallDecodeBytes gates the heap bytes of one warm Decompress of a
// 128×8 Ocean block, the slab shape a daemon or a windowed stream
// decodes many times. Its float output is 8 KB. The Huffman decoders
// (an 18 KB lookup table each, two streams per block) and their code
// length scratch come from a pool, and the sections are inflated into
// buffers sized from their stored lengths, so what remains is the
// output, the sections and the container framing: 12.5 KB in 33
// allocations when the gate was set. A section read that grows by
// doubling again does not fit.
const maxSmallDecodeBytes = 14 << 10

// TestDecompressSmallBlockAllocs gates the bytes of a warm decode of a
// small block, where fixed per-decode costs dominate: the least of
// several decodes with the collector off, as in TestDecompressAllocBytes,
// because a decode can miss the pools.
func TestDecompressSmallBlockAllocs(t *testing.T) {
	ocean := datagen.Ocean(128, 8)
	blob, _, err := core.Compress(ocean.Dims(), ocean.Components(), core.Options{Tau: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	decode := func() {
		if _, _, err := core.Decompress(blob); err != nil {
			t.Fatal(err)
		}
	}
	decode() // warm
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 20
	bytes := make([]uint64, runs)
	mallocs := make([]uint64, runs)
	var before, after runtime.MemStats
	for i := range bytes {
		runtime.ReadMemStats(&before)
		decode()
		runtime.ReadMemStats(&after)
		bytes[i] = after.TotalAlloc - before.TotalAlloc
		mallocs[i] = after.Mallocs - before.Mallocs
	}
	least := slices.Min(bytes)
	t.Logf("small decode: %d B, %d allocs (least of %d)", least, slices.Min(mallocs), runs)
	if raceEnabled {
		return
	}
	if least > maxSmallDecodeBytes {
		t.Errorf("small decode allocates %d B, gate %d", least, maxSmallDecodeBytes)
	}
}
