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
// container framing; it measured 11.5 B when the gate was set. A working
// buffer that misses the pool — a symbol stream (4 B) or a component
// (8 B) — does not fit.
const maxDecodeBytesPerVertex = 13

// TestDecompressAllocBytes gates the bytes per vertex of one warm
// Decompress of a 384×288 Ocean block: the least of several decodes. A
// decode can miss the pool — a collection empties it, and a scratch Put
// on one P stays in that P's private slot, out of reach of a Get on
// another — so the collector is off while the decodes run, and the
// least of them is the decode that found its buffers pooled. A decode
// that never does fails as before.
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
	const runs = 5
	perVertex := make([]float64, runs)
	var before, after runtime.MemStats
	for i := range perVertex {
		runtime.ReadMemStats(&before)
		decode()
		runtime.ReadMemStats(&after)
		perVertex[i] = float64(after.TotalAlloc-before.TotalAlloc) / float64(ocean.NX*ocean.NY)
	}
	least := slices.Min(perVertex)
	t.Logf("decode: %.1f B/vertex (runs: %.1f)", least, perVertex)
	if raceEnabled {
		return
	}
	if least > maxDecodeBytesPerVertex {
		t.Errorf("decode allocates %.1f B/vertex, gate %d", least, maxDecodeBytesPerVertex)
	}
}

// maxSmallDecodeBytes gates the heap bytes of one warm Decompress of a
// 128×8 Ocean block, the slab shape a daemon or a windowed stream
// decodes many times. Its float output is 8 KB. The Huffman decoders
// (an 18 KB lookup table each, two streams per block) and their code
// length scratch come from a pool, so what remains is the output, the
// inflated sections and the container framing, 21.6 KB in 35
// allocations when the gate was set. One decoder that misses the pool
// does not fit.
const maxSmallDecodeBytes = 32 << 10

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
