package mpi

import (
	"testing"
	"time"
)

// run is Run for bodies that cannot fail.
func run(t *testing.T, cfg Config, body func(c *Comm) error) Stats {
	t.Helper()
	st, err := Run(cfg, body)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// recv is Recv for tests in which no rank fails.
func recv(t *testing.T, c *Comm, from, tag int) []byte {
	b, err := c.Recv(from, tag)
	if err != nil {
		t.Errorf("rank %d: %v", c.Rank, err)
	}
	return b
}

func TestPingPong(t *testing.T) {
	st := run(t, Config{Ranks: 2}, func(c *Comm) error {
		if c.Rank == 0 {
			c.Send(1, 0, []byte("hello"))
			if got := recv(t, c, 1, 1); string(got) != "world" {
				t.Errorf("rank 0 got %q", got)
			}
		} else {
			if got := recv(t, c, 0, 0); string(got) != "hello" {
				t.Errorf("rank 1 got %q", got)
			}
			c.Send(0, 1, []byte("world"))
		}
		return nil
	})
	if st.Messages != 2 || st.TotalBytes != 10 {
		t.Errorf("stats %+v", st)
	}
	if st.Makespan <= 0 {
		t.Error("makespan should be positive (latency accrued)")
	}
}

func TestClockAdvancesByCompute(t *testing.T) {
	st := run(t, Config{Ranks: 3}, func(c *Comm) error {
		c.Compute(time.Duration(c.Rank+1) * time.Millisecond)
		return nil
	})
	if st.Makespan != 3*time.Millisecond {
		t.Errorf("makespan %v, want 3ms", st.Makespan)
	}
	if st.RankClocks[0] != time.Millisecond {
		t.Errorf("rank 0 clock %v", st.RankClocks[0])
	}
}

func TestMessageCostModel(t *testing.T) {
	lat := time.Millisecond
	bw := 1e6 // 1 MB/s
	st := run(t, Config{Ranks: 2, Latency: lat, Bandwidth: bw}, func(c *Comm) error {
		if c.Rank == 0 {
			c.Send(1, 0, make([]byte, 1000)) // 1ms transfer at 1MB/s
		} else {
			recv(t, c, 0, 0)
		}
		return nil
	})
	// Receiver clock = 0 (sender clock) + 1ms latency + 1ms transfer.
	want := 2 * time.Millisecond
	if st.RankClocks[1] != want {
		t.Errorf("receiver clock %v, want %v", st.RankClocks[1], want)
	}
}

func TestRecvWaitsForArrival(t *testing.T) {
	st := run(t, Config{Ranks: 2, Latency: time.Millisecond, Bandwidth: 1e9}, func(c *Comm) error {
		if c.Rank == 0 {
			c.Compute(10 * time.Millisecond)
			c.Send(1, 0, []byte{1})
		} else {
			recv(t, c, 0, 0)
			// Receiver idled until the message arrived at ~11ms.
		}
		return nil
	})
	if st.RankClocks[1] < 10*time.Millisecond {
		t.Errorf("receiver clock %v ignores sender progress", st.RankClocks[1])
	}
}

func TestTimeMeasuresWork(t *testing.T) {
	st := run(t, Config{Ranks: 1}, func(c *Comm) error {
		c.Time(func() {
			time.Sleep(5 * time.Millisecond)
		})
		return nil
	})
	if st.Makespan < 5*time.Millisecond {
		t.Errorf("measured makespan %v too small", st.Makespan)
	}
}

func TestInt64Helpers(t *testing.T) {
	vals := []int64{0, 1, -1, 1 << 40, -(1 << 40)}
	run(t, Config{Ranks: 2}, func(c *Comm) error {
		if c.Rank == 0 {
			c.SendInt64s(1, 7, vals)
			return nil
		}
		got, err := c.RecvInt64s(0, 7)
		if err != nil {
			return err
		}
		if len(got) != len(vals) {
			t.Errorf("length %d", len(got))
			return nil
		}
		for i := range vals {
			if got[i] != vals[i] {
				t.Errorf("val %d: %d != %d", i, got[i], vals[i])
			}
		}
		return nil
	})
}

// ring passes one byte around n ranks; buffered sends keep it from
// deadlocking.
func ring(t *testing.T, n int) Stats {
	return run(t, Config{Ranks: n}, func(c *Comm) error {
		right := (c.Rank + 1) % n
		left := (c.Rank + n - 1) % n
		c.Send(right, 0, []byte{byte(c.Rank)})
		if got := recv(t, c, left, 0); len(got) != 1 || got[0] != byte(left) {
			t.Errorf("rank %d got %v", c.Rank, got)
		}
		return nil
	})
}

func TestManyRanksStencil(t *testing.T) {
	if st := ring(t, 16); st.Messages != 16 {
		t.Errorf("messages %d", st.Messages)
	}
}

func TestLargeWorld512Ranks(t *testing.T) {
	// The paper's smaller configuration: 512 ranks, one goroutine each.
	st := ring(t, 512)
	if st.Ranks != 512 || st.Messages != 512 {
		t.Errorf("ranks %d, messages %d", st.Ranks, st.Messages)
	}
}

func TestSendPanics(t *testing.T) {
	run(t, Config{Ranks: 1}, func(c *Comm) error {
		defer func() {
			if recover() == nil {
				t.Error("send to self must panic")
			}
		}()
		c.Send(0, 0, nil)
		return nil
	})
}
