package core

import "sync"

// kernelScratch carries the working buffers of one block compression.
// Every run of the sweep needs the same family of arrays (extended
// fixed-point components, the validity mask, the cell maps, the output
// symbol streams), and a throughput-oriented caller — the shared-memory
// pipeline, the experiment sweeps, the per-step archive appends — builds
// kernels in a tight loop. Recycling the buffers through a sync.Pool
// keeps the steady-state allocation count of an encode near zero; the
// buffers only grow, so a pool hit on a same-shape block allocates
// nothing.
//
// Ownership: a kernel holds its scratch from newKernel until close().
// close() returns the buffers to the pool and nils the kernel's views so
// a use-after-close fails loudly instead of corrupting a pooled buffer.
type kernelScratch struct {
	comps [maxComps][]int64
	own   [maxComps][]int64
	prev  [maxComps][]int64

	valid     []bool
	signs     []uint8
	cellValid []bool
	cpCell    []bool
	cpAdj     []bool

	expSyms  []uint32
	codeSyms []uint32
	literals []byte

	sweepers []*sweeper
	slices   []progress
}

var scratchPool = sync.Pool{New: func() interface{} { return new(kernelScratch) }}

// grow returns buf resized to n and zeroed, reallocating only when the
// capacity is insufficient. Zeroing keeps pooled reuse bit-identical to
// the make([]T, n) it replaces: the validity and cell masks rely on a
// false zero value, the sign plane on 0 meaning no strict sign, and the
// wavefront on zero slice progress.
func grow[T any](buf []T, n int) []T {
	buf = resize(buf, n)
	clear(buf)
	return buf
}

// resize returns buf resized to n without zeroing, for the positional
// symbol streams, whose every slot a complete sweep writes (finish
// refuses an incomplete one).
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// close releases the kernel's scratch back to the pool. The kernel must
// not be used afterwards: the packed blob (finish) and any decompressed /
// border copies remain valid — they never alias scratch — but the kernel
// methods will panic on their nil'd views.
func (k *kernel) close() {
	scr := k.scr
	if scr == nil {
		return
	}
	k.scr = nil
	// Hand the append-grown literal stream back so its capacity is kept,
	// and drop the sweepers' hold on the kernel.
	scr.literals = k.literals[:0]
	for _, s := range scr.sweepers {
		s.k = nil
	}
	for c := 0; c < maxComps; c++ {
		k.comps[c], k.own[c], k.prev[c] = nil, nil, nil
	}
	k.valid, k.signs = nil, nil
	k.cellValid, k.cpCell, k.cpAdj = nil, nil, nil
	k.expSyms, k.codeSyms, k.literals = nil, nil, nil
	scratchPool.Put(scr)
}
