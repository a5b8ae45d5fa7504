package parallel

import "repro/internal/core"

// The seam exchange of the ratio-oriented strategy (Fig. 4), written
// once for every driver that decomposes a field into two-phase pieces:
// the simulated-MPI ranks of CompressDistributed and the slabs of the
// shared-memory pipeline (package shm). A piece compresses everything
// but its neighbor-facing max planes in phase 1, against its neighbors'
// original border planes; it then hands its decompressed min planes
// over, and compresses its max planes in phase 2 against the
// neighbors' decompressed min planes. Every cell that straddles a seam
// is thus last touched by a phase-2 vertex that sees the cell's final
// values, which is what keeps the kernel's guarantee across the seam.

// Transport moves border planes between neighboring pieces. Planes are
// laid out per component as core.Encoder.SetGhostPlane takes them.
type Transport interface {
	// Original returns the phase-1 ghost across side: the neighbor's
	// original border plane.
	Original(side int) ([][]int64, error)
	// Hand passes this piece's decompressed border plane on min side
	// side to the neighbor across it, after phase 1.
	Hand(side int, plane [][]int64) error
	// Decompressed returns the phase-2 ghost across max side side: the
	// neighbor's decompressed min-side border plane.
	Decompressed(side int) ([][]int64, error)
}

// PhaseOne sets enc's phase-1 ghosts on every neighbor side nb marks,
// runs phase 1 under compute, and hands the decompressed min-side
// border planes over. compute runs the compute step; nil runs it
// directly.
func PhaseOne(enc *core.Encoder, nb [6]bool, t Transport, compute func(func())) error {
	for s, ok := range nb {
		if !ok {
			continue
		}
		g, err := t.Original(s)
		if err != nil {
			return err
		}
		if err := enc.SetGhostPlane(s, g); err != nil {
			return err
		}
	}
	run(compute, func() {
		enc.Prepare()
		enc.RunPhase1()
	})
	for s := 0; s < 6; s += 2 {
		if nb[s] {
			if err := t.Hand(s, enc.BorderPlane(s)); err != nil {
				return err
			}
		}
	}
	return nil
}

// PhaseTwo refreshes enc's max-side ghosts with the neighbors'
// decompressed borders, then runs phase 2 and seals the block under
// compute.
func PhaseTwo(enc *core.Encoder, nb [6]bool, t Transport, compute func(func())) ([]byte, error) {
	for s := 1; s < 6; s += 2 {
		if !nb[s] {
			continue
		}
		g, err := t.Decompressed(s)
		if err != nil {
			return nil, err
		}
		if err := enc.SetGhostPlane(s, g); err != nil {
			return nil, err
		}
	}
	var blob []byte
	var err error
	run(compute, func() {
		enc.RunPhase2()
		blob, err = enc.Finish()
	})
	return blob, err
}

func run(compute func(func()), f func()) {
	if compute == nil {
		f()
		return
	}
	compute(f)
}
