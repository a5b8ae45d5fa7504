package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// runGuarded runs Run on its own goroutine and fails the test, instead
// of hanging it, when Run does not return within a few seconds.
func runGuarded(t *testing.T, cfg Config, body func(c *Comm) error) (Stats, error) {
	t.Helper()
	type result struct {
		st  Stats
		err error
	}
	done := make(chan result, 1)
	go func() {
		st, err := Run(cfg, body)
		done <- result{st, err}
	}()
	select {
	case r := <-done:
		return r.st, r.err
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return: a failed rank left a receiver blocked")
		return Stats{}, nil
	}
}

// settle waits for the goroutine count to fall back to want.
func settle(t *testing.T, want int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > want; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d -> %d", want, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAbortWakesBlockedReceiver: a receiver waiting on a rank that
// fails before sending gets ErrAborted, and Run reports the failing
// rank's own error.
func TestAbortWakesBlockedReceiver(t *testing.T) {
	before := runtime.NumGoroutine()
	root := errors.New("rank 0 cannot start")
	_, err := runGuarded(t, Config{Ranks: 3}, func(c *Comm) error {
		if c.Rank == 0 {
			time.Sleep(10 * time.Millisecond) // let the others block first
			return root
		}
		_, err := c.Recv(0, 9)
		if !errors.Is(err, ErrAborted) {
			t.Errorf("rank %d: receive returned %v, want ErrAborted", c.Rank, err)
		}
		return fmt.Errorf("rank %d: %w", c.Rank, err)
	})
	if err != root {
		t.Fatalf("Run returned %v, want the root error", err)
	}
	settle(t, before)
}

// TestAbortFailsLaterReceives: a receive entered after the abort fails
// too, and RecvInt64s passes ErrAborted through.
func TestAbortFailsLaterReceives(t *testing.T) {
	root := errors.New("rank 1 failed")
	_, err := runGuarded(t, Config{Ranks: 2}, func(c *Comm) error {
		if c.Rank == 1 {
			return root
		}
		_, err := c.RecvInt64s(1, 3) // wakes with ErrAborted
		if !errors.Is(err, ErrAborted) {
			t.Errorf("first receive: %v", err)
		}
		if _, err := c.Recv(1, 4); !errors.Is(err, ErrAborted) {
			t.Errorf("receive after the abort: %v", err)
		}
		return nil
	})
	if err != root {
		t.Fatalf("Run returned %v, want the root error", err)
	}
}

// TestAbortReportsLowestEarlyRank: when several ranks fail before any
// receive, Run returns the lowest one's error every time, whichever
// failed first.
func TestAbortReportsLowestEarlyRank(t *testing.T) {
	errs := []error{nil, errors.New("rank 1"), nil, errors.New("rank 3")}
	for i := 0; i < 20; i++ {
		_, err := runGuarded(t, Config{Ranks: 4}, func(c *Comm) error {
			if e := errs[c.Rank]; e != nil {
				if c.Rank == 1 {
					time.Sleep(time.Millisecond) // rank 3 usually aborts first
				}
				return e
			}
			_, err := c.Recv((c.Rank+1)%4, 0)
			return err
		})
		if err != errs[1] {
			t.Fatalf("run %d: Run returned %v, want rank 1's error", i, err)
		}
	}
}
