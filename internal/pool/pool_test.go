package pool

import (
	"sync/atomic"
	"testing"
)

// TestDoRunsEveryTask: every task runs exactly once, inline or fanned
// out.
func TestDoRunsEveryTask(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		const n = 100
		var runs [n]atomic.Int32
		Do(workers, n, func(i int) { runs[i].Add(1) })
		for i := range runs {
			if got := runs[i].Load(); got != 1 {
				t.Fatalf("workers %d: task %d ran %d times", workers, i, got)
			}
		}
	}
}

// TestDoRaisesTaskPanicOnCaller: a task's panic comes back to the caller
// as the same value once every worker has returned; inline, no task
// after it runs.
func TestDoRaisesTaskPanicOnCaller(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		var running, ran atomic.Int32
		got := func() (r any) {
			defer func() { r = recover() }()
			Do(workers, 1000, func(i int) {
				running.Add(1)
				defer running.Add(-1)
				ran.Add(1)
				if i == 3 {
					panic("task 3")
				}
			})
			return nil
		}()
		if got != "task 3" {
			t.Fatalf("workers %d: recovered %v, want the task's panic", workers, got)
		}
		if n := running.Load(); n != 0 {
			t.Fatalf("workers %d: %d tasks still running after Do returned", workers, n)
		}
		if n := ran.Load(); workers == 1 && n != 4 {
			t.Fatalf("inline: %d tasks ran, want 4", n)
		}
	}
}
