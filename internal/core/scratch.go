package core

import (
	"runtime"
	"sync"
)

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
}

var scratchPool = sync.Pool{New: func() interface{} { return new(kernelScratch) }}

// sharedPool is a free list whose Put any goroutine's Get sees. A
// sync.Pool keeps a Put in the putting P's private slot when that slot
// is empty, and a Get on another P cannot reach it: the pipelined
// decoder's caller often releases its scratch on another P than the
// next decode starts on, and about one warm 384×288 decode in eight then
// allocated its whole scratch again (39–40 B/vertex against 10.8, with
// no collection in between). Like a sync.Pool, it lets the collector
// have what stays idle: each collection moves the free list to a victim
// list and drops the previous victims, so an entry survives one idle
// collection.
type sharedPool[T any] struct {
	mu           sync.Mutex
	free, victim []*T
}

// newSharedPool returns an empty pool that ages at every collection.
func newSharedPool[T any]() *sharedPool[T] {
	p := new(sharedPool[T])
	afterGC(p.age)
	return p
}

// get returns a pooled T, or a new zero one.
func (p *sharedPool[T]) get() *T {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, l := range [2]*[]*T{&p.free, &p.victim} {
		if n := len(*l); n > 0 {
			x := (*l)[n-1]
			(*l)[n-1] = nil
			*l = (*l)[:n-1]
			return x
		}
	}
	return new(T)
}

// put returns x to the pool for any goroutine's next get.
func (p *sharedPool[T]) put(x *T) {
	p.mu.Lock()
	p.free = append(p.free, x)
	p.mu.Unlock()
}

// age drops the victims and makes the free list the new victims.
func (p *sharedPool[T]) age() {
	p.mu.Lock()
	p.victim, p.free = p.free, nil
	p.mu.Unlock()
}

// gcSentinel is the object whose finalizer afterGC re-arms; it is too
// large for the tiny allocator, whose blocks free late.
type gcSentinel struct{ _ [32]byte }

// afterGC runs f on the finalizer goroutine once after every
// collection: a sentinel's finalizer runs in the first collection that
// finds it unreachable and arms the next one.
func afterGC(f func()) {
	runtime.SetFinalizer(new(gcSentinel), func(*gcSentinel) {
		f()
		afterGC(f)
	})
}

// grow returns buf resized to n and zeroed, reallocating only when the
// capacity is insufficient. Zeroing keeps pooled reuse bit-identical to
// the make([]T, n) it replaces: the validity and cell masks rely on a
// false zero value, and the sign plane on 0 meaning no strict sign.
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
