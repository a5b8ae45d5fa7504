// Package mpi simulates a distributed-memory message-passing machine on a
// single host, so the paper's parallelization strategies (Section VI) can
// be exercised with their real communication patterns.
//
// Each rank runs as a goroutine and keeps a virtual clock. Compute
// segments advance the clock by measured wall time (serialized under a
// global lock so measurements are not distorted by scheduling); messages
// advance the receiver's clock according to a latency/bandwidth cost model
// (LogP-style). The makespan of the simulated run is the maximum final
// clock — the quantity the strong-scaling tables report — while total
// bytes and message counts quantify communication overhead. A rank that
// fails aborts the machine, as MPI_Abort does: the ranks waiting on it
// are woken with ErrAborted rather than left to hang.
package mpi

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/safedim"
	"repro/internal/telemetry"
)

// Config describes the simulated machine.
type Config struct {
	// Ranks is the number of processes.
	Ranks int
	// Latency is the per-message cost (default 1µs, a 100Gb InfiniBand
	// class fabric).
	Latency time.Duration
	// Bandwidth is the link bandwidth in bytes/second (default 12.5 GB/s).
	Bandwidth float64
	// Tel, when non-nil, receives the communication metrics of the run:
	// message and byte counts, a message-size histogram, and the
	// accumulated virtual receive-stall time.
	Tel *telemetry.Collector
}

// ErrAborted is what a receive returns once another rank's body has
// failed: the world is aborted, and a message it waits for may never be
// sent.
var ErrAborted = errors.New("mpi: world aborted by a failed rank")

func (c Config) withDefaults() Config {
	if c.Latency == 0 {
		c.Latency = time.Microsecond
	}
	if c.Bandwidth == 0 {
		c.Bandwidth = 12.5e9
	}
	return c
}

type message struct {
	data    []byte
	arrival time.Duration // virtual arrival time at the receiver
}

type mailKey struct {
	from, to, tag int
}

// World is one simulated machine instance.
type World struct {
	cfg    Config
	mu     sync.Mutex
	boxes  map[mailKey]chan message
	comp   sync.Mutex // serializes measured compute segments
	bytes  int64
	msgs   int
	clocks []time.Duration

	// done is closed, once, by the first rank whose body fails; every
	// receive then returns ErrAborted.
	done  chan struct{}
	abort sync.Once
	root  error // the error that closed done

	// Telemetry handles; all nil when cfg.Tel is nil.
	cP2PMsgs, cP2PBytes *telemetry.Counter
	cRecvWait           *telemetry.Counter
	hMsgBytes           *telemetry.Histogram
}

// Comm is one rank's endpoint.
type Comm struct {
	w        *World
	Rank     int
	clock    time.Duration
	received bool // the rank has entered a receive
}

// Stats summarizes a simulated run.
type Stats struct {
	Ranks      int
	Makespan   time.Duration   // max final virtual clock
	RankClocks []time.Duration // per-rank final clocks
	TotalBytes int64           // payload bytes sent
	Messages   int
}

// Run executes body on every rank of a fresh world and returns the run
// statistics. A rank whose body returns an error aborts the world: the
// receives of the other ranks return ErrAborted, so no rank waits for a
// message that will never come. Run returns once every rank has
// returned, with the failing rank's own error. When several ranks fail
// before their first receive, which is how an input error fails, the
// lowest such rank's error is returned on every run; otherwise the error
// that aborted the world is.
func Run(cfg Config, body func(c *Comm) error) (Stats, error) {
	cfg = cfg.withDefaults()
	w := &World{
		cfg:    cfg,
		boxes:  make(map[mailKey]chan message),
		clocks: make([]time.Duration, cfg.Ranks),
		done:   make(chan struct{}),
	}
	if tel := cfg.Tel; tel != nil {
		tel.Gauge("mpi.ranks").Set(int64(cfg.Ranks))
		w.cP2PMsgs = tel.Counter("mpi.p2p.msgs")
		w.cP2PBytes = tel.Counter("mpi.p2p.bytes")
		w.cRecvWait = tel.Counter("mpi.recv_wait_ns")
		w.hMsgBytes = tel.Histogram("mpi.msg_bytes")
	}
	early := make([]error, cfg.Ranks) // errors of ranks that never received
	var wg sync.WaitGroup
	for r := 0; r < cfg.Ranks; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := &Comm{w: w, Rank: rank}
			if err := body(c); err != nil {
				if !c.received {
					early[rank] = err
				}
				w.abort.Do(func() {
					w.root = err
					close(w.done)
				})
			}
			w.mu.Lock()
			w.clocks[rank] = c.clock
			w.mu.Unlock()
		}(r)
	}
	wg.Wait()
	st := Stats{Ranks: cfg.Ranks, RankClocks: w.clocks, TotalBytes: w.bytes, Messages: w.msgs}
	for _, c := range w.clocks {
		if c > st.Makespan {
			st.Makespan = c
		}
	}
	for _, err := range early {
		if err != nil {
			return st, err
		}
	}
	return st, w.root
}

func (w *World) box(k mailKey) chan message {
	w.mu.Lock()
	defer w.mu.Unlock()
	b, ok := w.boxes[k]
	if !ok {
		b = make(chan message, 1024)
		w.boxes[k] = b
	}
	return b
}

// Compute advances the rank's virtual clock by a known duration (for
// modeled rather than measured work).
func (c *Comm) Compute(d time.Duration) {
	c.clock += d
}

// Time runs f as a measured compute segment: the wall time of f advances
// the virtual clock and is returned, so callers can attribute the segment
// to a telemetry span. Segments are serialized across ranks so
// measurements on an oversubscribed host remain accurate.
func (c *Comm) Time(f func()) time.Duration {
	c.w.comp.Lock()
	start := time.Now()
	f()
	d := time.Since(start)
	c.w.comp.Unlock()
	c.clock += d
	return d
}

// Elapsed returns the rank's current virtual time.
func (c *Comm) Elapsed() time.Duration { return c.clock }

// Send transmits data to rank `to` with the given tag. Sends are
// asynchronous (buffered); the message arrives at the receiver at
// senderClock + latency + len/bandwidth.
//
// The rank checks panic rather than returning errors: destinations are
// computed from the rank-grid topology, never from external input, so a
// bad rank is a driver bug — matching real MPI, where it aborts the job.
func (c *Comm) Send(to, tag int, data []byte) {
	if to == c.Rank {
		panic("mpi: send to self")
	}
	if to < 0 || to >= c.w.cfg.Ranks {
		panic(fmt.Sprintf("mpi: send to invalid rank %d", to))
	}
	cost := c.w.cfg.Latency + time.Duration(float64(len(data))/c.w.cfg.Bandwidth*float64(time.Second))
	c.w.mu.Lock()
	c.w.bytes += int64(len(data))
	c.w.msgs++
	c.w.mu.Unlock()
	c.w.cP2PMsgs.Inc()
	c.w.cP2PBytes.Add(int64(len(data)))
	c.w.hMsgBytes.Observe(int64(len(data)))
	c.w.box(mailKey{c.Rank, to, tag}) <- message{data: data, arrival: c.clock + cost}
}

// Recv blocks until a message with the tag arrives from rank `from`, and
// advances the virtual clock to at least its arrival time. Once the
// world is aborted it returns ErrAborted instead, whether it was waiting
// or not.
func (c *Comm) Recv(from, tag int) ([]byte, error) {
	c.received = true
	select {
	case <-c.w.done:
		return nil, ErrAborted
	default:
	}
	select {
	case m := <-c.w.box(mailKey{from, c.Rank, tag}):
		if m.arrival > c.clock {
			c.w.cRecvWait.Add(int64(m.arrival - c.clock))
			c.clock = m.arrival
		}
		return m.data, nil
	case <-c.w.done:
		return nil, ErrAborted
	}
}

// SendInt64s is a convenience wrapper marshaling an int64 slice.
func (c *Comm) SendInt64s(to, tag int, vals []int64) {
	buf := make([]byte, safedim.MustProduct(8, len(vals)))
	for i, v := range vals {
		u := uint64(v)
		for b := 0; b < 8; b++ {
			buf[8*i+b] = byte(u >> (8 * b))
		}
	}
	c.Send(to, tag, buf)
}

// RecvInt64s receives a slice sent with SendInt64s.
func (c *Comm) RecvInt64s(from, tag int) ([]int64, error) {
	buf, err := c.Recv(from, tag)
	if err != nil {
		return nil, err
	}
	vals := make([]int64, len(buf)/8)
	for i := range vals {
		var u uint64
		for b := 0; b < 8; b++ {
			u |= uint64(buf[8*i+b]) << (8 * b)
		}
		vals[i] = int64(u)
	}
	return vals, nil
}
