package parallel

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/fixed"
	"repro/internal/mpi"
	"repro/internal/safedim"
	"repro/internal/telemetry"
)

// The dimension-free distributed driver: the sub-block gather and
// scatter (blocks.go), rank topology, the phase-1/phase-2 ghost
// exchanges of the ratio-oriented protocol (Fig. 4), timing, and result
// aggregation, once for 2D and 3D.

// Result summarizes a distributed compression run.
type Result struct {
	// Blobs holds the per-rank compressed blocks (rank order).
	Blobs [][]byte
	// RawBytes and CompressedBytes give the global compression ratio.
	RawBytes, CompressedBytes int64
	// Stats carries the simulated-run timing (makespan = compression
	// wall time on the virtual machine) and communication volume.
	Stats mpi.Stats
	// EncStats aggregates the per-rank encoder stats (speculation,
	// relaxation, lossless escapes) across the whole machine.
	EncStats core.Stats
}

// Ratio returns the global compression ratio.
func (r Result) Ratio() float64 {
	if r.CompressedBytes == 0 {
		return 0
	}
	return float64(r.RawBytes) / float64(r.CompressedBytes)
}

// ThroughputMBps returns the aggregate compression throughput implied by
// the virtual makespan, in MB/s.
func (r Result) ThroughputMBps() float64 {
	s := r.Stats.Makespan.Seconds()
	if s == 0 {
		return 0
	}
	return float64(r.RawBytes) / 1e6 / s
}

// runTel carries the telemetry wiring of one distributed run. All fields
// are nil (and every method a no-op) when telemetry is disabled.
type runTel struct {
	run   *telemetry.Span
	ranks []*telemetry.Span
	p1Msgs, p1Bytes,
	p2Msgs, p2Bytes *telemetry.Counter
}

// newRunTel pre-creates the run span and one child span per rank, in rank
// order, so the snapshot layout is deterministic regardless of how the
// rank goroutines are scheduled.
func newRunTel(tel *telemetry.Collector, name string, ranks int) runTel {
	if tel == nil {
		return runTel{}
	}
	rt := runTel{
		run:     tel.Span(name),
		ranks:   make([]*telemetry.Span, ranks),
		p1Msgs:  tel.Counter("parallel.phase1.msgs"),
		p1Bytes: tel.Counter("parallel.phase1.bytes"),
		p2Msgs:  tel.Counter("parallel.phase2.msgs"),
		p2Bytes: tel.Counter("parallel.phase2.bytes"),
	}
	for r := range rt.ranks {
		rt.ranks[r] = rt.run.Child(fmt.Sprintf("rank%d", r))
	}
	return rt
}

// rank returns rank r's span (nil when disabled).
func (rt runTel) rank(r int) *telemetry.Span {
	if rt.ranks == nil {
		return nil
	}
	return rt.ranks[r]
}

// sent records a phase-1 or phase-2 ghost message of n payload bytes.
func (rt runTel) sent(phase2 bool, n int) {
	if phase2 {
		rt.p2Msgs.Inc()
		rt.p2Bytes.Add(int64(n))
	} else {
		rt.p1Msgs.Inc()
		rt.p1Bytes.Add(int64(n))
	}
}

// finish ends every rank span and the run span.
func (rt runTel) finish() {
	for _, sp := range rt.ranks {
		sp.End()
	}
	rt.run.End()
}

// Message tags: phase-1 ghosts carry the sender's side index; phase-2
// ghosts are offset by 10.
const phase2TagOffset = 10

// opposite maps a side to the side seen by the neighbor across it.
func opposite(side int) int {
	if side%2 == 0 {
		return side + 1
	}
	return side - 1
}

// flatten packs the per-component planes of one border into a single
// message payload; splitComps is its inverse on the receiving side.
func flatten(planes [][]int64) []int64 {
	out := make([]int64, 0, safedim.MustProduct(len(planes), len(planes[0])))
	for _, p := range planes {
		out = append(out, p...)
	}
	return out
}

func splitComps(vals []int64, nc int) [][]int64 {
	part := len(vals) / nc
	out := make([][]int64, nc)
	for c := range out {
		out[c] = vals[c*part : (c+1)*part]
	}
	return out
}

// rankTransport carries one rank's seam exchanges over the simulated
// machine: phase-1 originals and phase-2 decompressed borders travel as
// tagged messages to and from the neighbor ranks nb (-1: none).
type rankTransport struct {
	c  *mpi.Comm
	nb [6]int
	nc int
	rt runTel
}

// sendOriginals sends the rank's original border plane to every
// neighbor, the phase-1 ghosts Original receives on the other side.
func (t rankTransport) sendOriginals(enc *core.Encoder) {
	for s, r := range t.nb {
		if r >= 0 {
			vals := flatten(enc.BorderPlane(s))
			t.rt.sent(false, 8*len(vals))
			t.c.SendInt64s(r, s, vals)
		}
	}
}

// recv waits for the plane the neighbor across side sent with tag. A
// failed neighbor aborts the machine, and the wait returns
// mpi.ErrAborted.
func (t rankTransport) recv(side, tag int) ([][]int64, error) {
	vals, err := t.c.RecvInt64s(t.nb[side], tag)
	if err != nil {
		return nil, err
	}
	return splitComps(vals, t.nc), nil
}

func (t rankTransport) Original(side int) ([][]int64, error) {
	return t.recv(side, opposite(side))
}

func (t rankTransport) Hand(side int, plane [][]int64) error {
	vals := flatten(plane)
	t.rt.sent(true, 8*len(vals))
	t.c.SendInt64s(t.nb[side], phase2TagOffset+side, vals)
	return nil
}

func (t rankTransport) Decompressed(side int) ([][]int64, error) {
	return t.recv(side, phase2TagOffset+opposite(side))
}

// CompressDistributed compresses a field of dims [NX, NY] or
// [NX, NY, NZ] (one component per dimension) on a simulated machine of
// grid[0]×grid[1](×grid[2]) ranks: each rank gathers its sub-block into a
// core.Block and drives one encoder through the strategy's protocol. A
// malformed field or grid is an error before any rank starts; a rank
// that fails aborts the machine, and its error is returned, a value
// error with its index in the field.
func CompressDistributed(dims []int, comps [][]float32, grid []int, tr fixed.Transform,
	opts core.Options, strat Strategy, mcfg mpi.Config) (Result, error) {

	if _, err := safedim.Field(dims, comps, len(dims)); err != nil {
		return Result{}, fmt.Errorf("parallel: %w", err)
	}
	d, err := decompose(dims, grid)
	if err != nil {
		return Result{}, err
	}
	ndim, nc := len(dims), len(comps)
	ranks := d.ranks()
	mcfg.Ranks = ranks
	if mcfg.Tel == nil {
		mcfg.Tel = opts.Tel
	}
	rt := newRunTel(mcfg.Tel, fmt.Sprintf("parallel.compress%dd", ndim), ranks)

	blobs := make([][]byte, ranks)
	stats := make([]core.Stats, ranks)

	st, err := mpi.Run(mcfg, func(c *mpi.Comm) error {
		p := d.coords(c.Rank)
		stride := [3]int{1, d.grid[0], d.grid[0] * d.grid[1]}
		nb := [6]int{-1, -1, -1, -1, -1, -1}
		var neighbor [6]bool
		for ax := 0; ax < ndim; ax++ {
			if p[ax] > 0 {
				nb[2*ax] = c.Rank - stride[ax]
			}
			if p[ax] < d.grid[ax]-1 {
				nb[2*ax+1] = c.Rank + stride[ax]
			}
		}
		for s, r := range nb {
			if r >= 0 && strat != Naive {
				neighbor[s] = true
			}
		}
		// A rank with no neighbor side is the whole domain, and
		// compresses as one.
		shared := neighbor != [6]bool{}
		twoPhase := shared && strat == RatioOriented
		origin, size := d.box(p)
		sub := make([][]float32, nc)
		for ci := range sub {
			sub[ci] = make([]float32, safedim.MustProduct(size...))
			d.boxCopy(comps[ci], sub[ci], origin, size, true)
		}
		o := opts
		o.Tel = mcfg.Tel
		o.TelSpan = rt.rank(c.Rank)
		enc, err := core.NewEncoder(core.Block{
			Dims: size, Comps: sub, Transform: tr, Opts: o,
			Origin: origin, Global: dims, Neighbor: neighbor,
			LosslessBorder: shared && strat == LosslessBorders,
			TwoPhase:       twoPhase,
		})
		if err != nil {
			return d.globalIndex(err, origin, size)
		}
		defer enc.Close()

		var blob []byte
		if !twoPhase {
			c.Time(func() {
				enc.Run()
				blob, err = enc.Finish()
			})
		} else {
			// Phase-1 exchange: original border values to every
			// neighbor, then the seam protocol. Exchange spans report
			// virtual time (clock advance less the measured compute),
			// since the data movement itself is simulated.
			t := rankTransport{c: c, nb: nb, nc: nc, rt: rt}
			var computed time.Duration
			compute := func(f func()) { computed += c.Time(f) }
			x0 := c.Elapsed()
			t.sendOriginals(enc)
			if err := PhaseOne(enc, neighbor, t, compute); err != nil {
				return err
			}
			rt.rank(c.Rank).AddChild("ghost-exchange-p1", c.Elapsed()-x0-computed)
			x1, c1 := c.Elapsed(), computed
			blob, err = PhaseTwo(enc, neighbor, t, compute)
			rt.rank(c.Rank).AddChild("ghost-exchange-p2", c.Elapsed()-x1-(computed-c1))
		}
		if err != nil {
			return err
		}
		blobs[c.Rank], stats[c.Rank] = blob, enc.Stats()
		return nil
	})
	rt.finish()
	if err != nil {
		return Result{}, err
	}
	res := Result{Blobs: blobs, Stats: st, RawBytes: int64(nc*len(comps[0])) * 4}
	for _, b := range blobs {
		res.CompressedBytes += int64(len(b))
	}
	for _, s := range stats {
		res.EncStats.Add(s)
	}
	return res, nil
}

// DecompressDistributed decodes the per-rank blobs of a field of dims
// on the simulated machine of CompressDistributed's grid and reassembles
// the global components. Each rank's decode is timed under its "decode"
// span; the returned stats carry the decompression makespan.
func DecompressDistributed(blobs [][]byte, dims, grid []int, mcfg mpi.Config) ([][]float32, mpi.Stats, error) {
	if _, err := safedim.Field(dims, nil, 0); err != nil {
		return nil, mpi.Stats{}, fmt.Errorf("parallel: %w", err)
	}
	d, err := decompose(dims, grid)
	if err != nil {
		return nil, mpi.Stats{}, err
	}
	ranks := d.ranks()
	if len(blobs) != ranks {
		return nil, mpi.Stats{}, fmt.Errorf("parallel: %d blobs for %d ranks", len(blobs), ranks)
	}
	out := make([][]float32, len(dims))
	for c := range out {
		out[c] = make([]float32, safedim.MustProduct(dims...))
	}
	mcfg.Ranks = ranks
	rt := newRunTel(mcfg.Tel, fmt.Sprintf("parallel.decompress%dd", len(dims)), ranks)
	st, err := mpi.Run(mcfg, func(c *mpi.Comm) error {
		origin, size := d.box(d.coords(c.Rank))
		var got []int
		var comps [][]float32
		var err error
		dt := c.Time(func() {
			got, comps, err = core.Decompress(blobs[c.Rank])
		})
		rt.rank(c.Rank).AddChild("decode", dt)
		if err != nil {
			return err
		}
		if !slices.Equal(got, size) {
			return fmt.Errorf("parallel: rank %d block has dims %v, want %v", c.Rank, got, size)
		}
		for ci := range out {
			d.boxCopy(out[ci], comps[ci], origin, size, false)
		}
		return nil
	})
	rt.finish()
	if err != nil {
		return nil, st, err
	}
	return out, st, nil
}
