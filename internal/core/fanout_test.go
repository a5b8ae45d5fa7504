package core

import (
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/datagen"
	"repro/internal/fixed"
)

// TestWavefrontOnlyWholeDomains: with cores to spare, a whole-domain
// block whose slices reach minSliceLen fans out, and a placed, bordered,
// neighbored or two-phase block, or one with shorter slices, never does
// — its width is 1 and no worker ever takes a slice.
func TestWavefrontOnlyWholeDomains(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	f := datagen.Ocean(minSliceLen, 60)
	tr, err := fixed.Fit(f.U, f.V)
	if err != nil {
		t.Fatal(err)
	}
	short := datagen.Ocean(minSliceLen-1, 60)
	base := Block{Dims: f.Dims(), Comps: f.Components(), Transform: tr, Opts: Options{Tau: 0.01}}
	for _, tc := range []struct {
		name   string
		edit   func(b *Block)
		fanOut bool
	}{
		{"whole domain", func(b *Block) {}, true},
		{"whole domain, explicit origin and global", func(b *Block) { b.Origin, b.Global = []int{0, 0}, []int{minSliceLen, 60} }, true},
		{"placed", func(b *Block) { b.Origin, b.Global = []int{0, 60}, []int{minSliceLen, 120} }, false},
		{"inside a larger domain", func(b *Block) { b.Global = []int{minSliceLen, 120} }, false},
		{"neighbored", func(b *Block) { b.Neighbor[SideMaxY] = true }, false},
		{"lossless border", func(b *Block) { b.LosslessBorder = true }, false},
		{"two-phase", func(b *Block) { b.TwoPhase = true; b.Neighbor[SideMaxY] = true }, false},
		{"slices below minSliceLen", func(b *Block) { b.Dims, b.Comps = short.Dims(), short.Components() }, false},
	} {
		b := base
		tc.edit(&b)
		s, err := b.spec()
		if err != nil {
			t.Fatal(err)
		}
		k, err := newKernel(s)
		if err != nil {
			t.Fatal(err)
		}
		if w := k.width(); (w > 1) != tc.fanOut {
			t.Fatalf("%s: width %d, fan-out %v", tc.name, w, tc.fanOut)
		}
		var taken atomic.Int64
		restore := SetSliceHook(func(int, int) { taken.Add(1) })
		k.run()
		restore()
		if n := taken.Load(); !tc.fanOut && n != 0 {
			t.Fatalf("%s: %d slices handed to wavefront workers", tc.name, n)
		}
		if tc.fanOut && taken.Load() == 0 {
			t.Fatalf("%s: no slice went through the wavefront", tc.name)
		}
		k.close()
	}
}
