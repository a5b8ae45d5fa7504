package mpi

import (
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestTelemetryCounters checks the message counts and that receive
// stalls accumulate virtual time.
func TestTelemetryCounters(t *testing.T) {
	tel := telemetry.New()
	run(t, Config{Ranks: 2, Tel: tel}, func(c *Comm) error {
		if c.Rank == 0 {
			c.Compute(time.Millisecond) // sender lags; receiver must stall
			c.Send(1, 7, make([]byte, 100))
			return nil
		}
		_, err := c.Recv(0, 7)
		return err
	})
	snap := tel.Snapshot()
	if got := snap.Counters["mpi.p2p.msgs"]; got != 1 {
		t.Errorf("p2p.msgs = %d, want 1", got)
	}
	if got := snap.Counters["mpi.p2p.bytes"]; got != 100 {
		t.Errorf("p2p.bytes = %d, want 100", got)
	}
	// Receiver idled at clock 0 while the message arrived after the
	// sender's 1ms compute segment plus link cost.
	if got := snap.Counters["mpi.recv_wait_ns"]; got < int64(time.Millisecond) {
		t.Errorf("recv_wait_ns = %d, want >= 1ms of virtual stall", got)
	}
	if snap.Gauges["mpi.ranks"] != 2 {
		t.Errorf("mpi.ranks = %d, want 2", snap.Gauges["mpi.ranks"])
	}
	if h := snap.Histograms["mpi.msg_bytes"]; h.Count == 0 || h.Max < 100 {
		t.Errorf("msg_bytes histogram = %+v, want at least the 100-byte message", h)
	}
}

// TestTimeReturnsDuration checks the measured-segment duration is
// reported to the caller and advances the clock by the same amount.
func TestTimeReturnsDuration(t *testing.T) {
	run(t, Config{Ranks: 1}, func(c *Comm) error {
		before := c.Elapsed()
		d := c.Time(func() { time.Sleep(2 * time.Millisecond) })
		if d < 2*time.Millisecond {
			t.Errorf("Time returned %v, want >= 2ms", d)
		}
		if got := c.Elapsed() - before; got != d {
			t.Errorf("clock advanced %v, Time returned %v", got, d)
		}
		return nil
	})
}
