// Memory-budget sizing: translates the operator-facing byte budget
// (topozip -max-mem, Options.MaxMemBytes) into the two knobs the
// streaming pipeline actually has — the slab count and the admission
// window — so callers state a ceiling and the engine picks a
// decomposition that honors it.
//
// The overhead constants estimate how many bytes one admitted slab
// really costs relative to its raw float32 planes. Compressing, a slab
// holds its raw planes (1x), the encoder's fixed-point int64 copies
// (2x), the residual/bound streams plus the sealed blob awaiting flush
// (~1x), and headroom for the Go runtime between collections (~2x).
// Decoding skips the encode streams but still inflates to int64 before
// converting, so it sits a notch lower. A slab parked at its seam keeps
// its encoder's fixed-point state until its successor's phase 1 is done,
// so it costs the compress overhead until it seals.

package shm

const (
	compressSlabOverhead   = 6
	decompressSlabOverhead = 5
)

// seamWindow is the window budgetSlabs sizes slabs for: at two-phase
// seams a slab stays resident until its successor has run phase 1, so
// keeping two workers busy takes three slabs.
const seamWindow = 3

// budgetSlabs picks the slab count from the budget and the field shape
// alone: the largest slab fits the budget with room for a window of
// three — two slabs in phase 1 and one waiting at its seam for its
// successor — capped at nSlow/2 (slabs need two planes each). A budget
// that holds the whole field that way gives one slab; there is no
// parallelism floor, since a whole-domain slab already runs on every
// core.
func budgetSlabs(budget, planeBytes int64, nSlow int) int {
	planes := budget / (seamWindow * compressSlabOverhead) / planeBytes
	if planes < 2 {
		planes = 2
	}
	slabs := int((int64(nSlow) + planes - 1) / planes)
	return max(1, min(slabs, nSlow/2))
}

// budgetWindow derives the admission window from the budget and the
// byte size of the largest slab, clamped to [1, slabs]. A slab too big
// for the budget still gets a window of one — the pipeline degrades to
// fully serial rather than refusing to run.
func budgetWindow(budget, maxSlabBytes int64, slabs int, overhead int64) int {
	if maxSlabBytes <= 0 {
		return slabs
	}
	w := int(budget / (overhead * maxSlabBytes))
	if w < 1 {
		w = 1
	}
	if w > slabs {
		w = slabs
	}
	return w
}

// applyBudget resolves MaxMemBytes into the slab count of a compress run
// over nSlow planes of planeBytes each, when Slabs is left at zero. The
// derived slab count depends on the budget and field shape only — never
// on Workers — so a fixed (-max-mem, field) pair still produces
// byte-identical output at any worker count.
func (o Options) applyBudget(planeBytes int64, nSlow int) Options {
	if o.MaxMemBytes > 0 && o.Slabs <= 0 && planeBytes > 0 && nSlow >= 2 {
		o.Slabs = budgetSlabs(o.MaxMemBytes, planeBytes, nSlow)
	}
	return o
}

// window is the admission window of a run of slabs whose largest holds
// maxSlabBytes of raw planes, each raw byte costing overhead bytes: what
// MaxMemBytes admits (budgetWindow), every slab at once without a
// budget, and never below one. The window never influences the output
// bytes, only peak memory and stalls.
func (o Options) window(maxSlabBytes int64, slabs int, overhead int64) int {
	w := slabs
	if o.MaxMemBytes > 0 {
		w = budgetWindow(o.MaxMemBytes, maxSlabBytes, slabs, overhead)
	}
	return max(w, 1)
}
