package core

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/fixed"
)

// TestPiecesOnlyWholeDomains: a whole-domain block of at least two
// pieces' worth of vertices sweeps in pieces, and a placed, bordered,
// neighbored or two-phase block, or a smaller one, never does — it is
// one task per phase.
func TestPiecesOnlyWholeDomains(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	nx, ny := 256, 2*minPieceVertices/256
	f := datagen.Ocean(nx, ny)
	tr, err := fixed.Fit(f.U, f.V)
	if err != nil {
		t.Fatal(err)
	}
	small := datagen.Ocean(nx, ny-1)
	base := Block{Dims: f.Dims(), Comps: f.Components(), Transform: tr, Opts: Options{Tau: 0.01}}
	for _, tc := range []struct {
		name   string
		edit   func(b *Block)
		pieces int
	}{
		{"whole domain", func(b *Block) {}, 2},
		{"whole domain, explicit origin and global", func(b *Block) { b.Origin, b.Global = []int{0, 0}, []int{nx, ny} }, 2},
		{"temporal", func(b *Block) { b.Prev = b.Comps }, 2},
		{"placed", func(b *Block) { b.Origin, b.Global = []int{0, ny}, []int{nx, 2 * ny} }, 1},
		{"inside a larger domain", func(b *Block) { b.Global = []int{nx, 2 * ny} }, 1},
		{"neighbored", func(b *Block) { b.Neighbor[SideMaxY] = true }, 1},
		{"lossless border", func(b *Block) { b.LosslessBorder = true }, 1},
		{"two-phase", func(b *Block) { b.TwoPhase = true; b.Neighbor[SideMaxY] = true }, 1},
		{"below two pieces", func(b *Block) { b.Dims, b.Comps = small.Dims(), small.Components() }, 1},
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
		if got := max(1, k.order.pieces); got != tc.pieces {
			t.Fatalf("%s: %d pieces, want %d", tc.name, got, tc.pieces)
		}
		var mu sync.Mutex
		tasks := map[[2]int]int{}
		restore := SetPieceHook(func(phase, task int) {
			mu.Lock()
			tasks[[2]int{phase, task}]++
			mu.Unlock()
		})
		k.run()
		restore()
		want := map[[2]int]int{{phaseAll, 0}: 1}
		switch {
		case tc.pieces > 1:
			want = map[[2]int]int{{phaseOne, 0}: 1, {phaseOne, 1}: 1, {phaseTwo, 0}: 1}
		case b.TwoPhase:
			want = map[[2]int]int{{phaseOne, 0}: 1, {phaseTwo, 0}: 1}
		}
		if len(tasks) != len(want) {
			t.Fatalf("%s: tasks run %v, want %v", tc.name, tasks, want)
		}
		for key, n := range want {
			if tasks[key] != n {
				t.Fatalf("%s: tasks run %v, want %v", tc.name, tasks, want)
			}
		}
		k.close()
	}
}

// TestPieceOrder: the pieced order covers every vertex once at
// consecutive stream positions, puts each inner piece's top plane (its
// seam) after every phase-1 vertex, and visits every lower Lorenzo
// neighbor at or above its run's lo before the vertex, while none below
// it shares the vertex's piece. Pieces hold two slow planes or more.
func TestPieceOrder(t *testing.T) {
	for _, o := range []vertexOrder{
		{nx: 3, ny: 8, nz: 1, pieces: 4},
		{nx: 4, ny: 9, nz: 1, pieces: 4},
		{nx: 5, ny: 11, nz: 1, pieces: 3},
		{nx: 2, ny: 3, nz: 6, pieces: 3},
		{nx: 3, ny: 2, nz: 7, pieces: 2},
		{nx: 2, ny: 2, nz: 13, pieces: 5},
	} {
		n, rows := o.slow()
		plane := o.nx * rows
		for p := 0; p < o.pieces; p++ {
			if o.pieceStart(p+1)-o.pieceStart(p) < 2 {
				t.Fatalf("%+v: piece %d holds fewer than two planes", o, p)
			}
		}
		seam := map[int]bool{}
		for p := 1; p < o.pieces; p++ {
			seam[o.pieceStart(p)-1] = true
		}
		done := make([]bool, o.nx*o.ny*o.nz)
		pos := 0
		if err := o.allRuns(func(r orderRun) error {
			if r.pos != pos {
				t.Fatalf("%+v: run %+v at position %d, want %d", o, r, r.pos, pos)
			}
			for oi := r.i0; oi < r.i1; oi, pos = oi+1, pos+1 {
				own := (r.ok*o.ny+r.oj)*o.nx + oi
				s := own / plane
				if phase2 := pos >= (n-o.pieces+1)*plane; phase2 != seam[s] {
					t.Fatalf("%+v: plane %d at position %d: seam %v", o, s, pos, seam[s])
				}
				if r.lo%plane != 0 || r.lo > own {
					t.Fatalf("%+v: run %+v: lo %d off its piece", o, r, r.lo)
				}
				for d := 1; d < 8; d++ {
					i, j, k := oi-d&1, r.oj-d>>1&1, r.ok-d>>2&1
					if i < 0 || j < 0 || k < 0 {
						continue
					}
					nb := (k*o.ny+j)*o.nx + i
					if nb >= r.lo && !done[nb] {
						t.Fatalf("%+v: %d visited before its lower neighbor %d (lo %d)", o, own, nb, r.lo)
					}
					if nb < r.lo && !seam[nb/plane] {
						t.Fatalf("%+v: %d does not read its lower neighbor %d, which is no seam", o, own, nb)
					}
				}
				if done[own] {
					t.Fatalf("%+v: %d visited twice", o, own)
				}
				done[own] = true
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if pos != len(done) {
			t.Fatalf("%+v: visited %d of %d", o, pos, len(done))
		}
	}
}
