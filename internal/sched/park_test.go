package sched

import (
	"sync/atomic"
	"testing"
	"time"
)

// finishes fails the test if fn has not returned within the deadline: a lost
// wake-up shows as a pool that never becomes quiescent, not as a wrong sum.
func finishes(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("%s: pool still running after 60 s (lost wake-up?)", what)
	}
}

// TestParkNoLostWakeups drives the sleep/wake protocol through the shapes
// that could strand a sleeper: thousands of runs too short for a worker to
// do anything but park and be released, spawn trees whose producers signal
// while thieves are registering, and a panic that has to drain past
// sleeping workers. Run it under -race.
func TestParkNoLostWakeups(t *testing.T) {
	for _, p := range []int{2, 3, 8} {
		pool := NewPool(p)
		finishes(t, "tiny ParallelFors", func() {
			var hits int64
			for i := 0; i < 3000; i++ {
				pool.ParallelFor(1+i%7, 1, func(_, lo, hi int) { atomic.AddInt64(&hits, int64(hi-lo)) })
			}
			if want := int64(3000/7*28 + 1 + 2 + 3 + 4); hits != want {
				t.Errorf("p=%d: %d iterations ran, want %d", p, hits, want)
			}
		})
		finishes(t, "nested spawns", func() {
			for i := 0; i < 50; i++ {
				var leaves int64
				var tree func(depth int) Task
				tree = func(depth int) Task {
					return func(w int) {
						if depth == 0 {
							atomic.AddInt64(&leaves, 1)
							return
						}
						pool.Spawn(w, tree(depth-1))
						pool.Spawn(w, tree(depth-1))
					}
				}
				st := pool.Run(tree(8))
				if leaves != 256 || st.Executed != 511 {
					t.Errorf("p=%d: %d leaves, %d tasks; want 256, 511", p, leaves, st.Executed)
				}
			}
		})
		finishes(t, "panic drain", func() {
			for i := 0; i < 50; i++ {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("p=%d: panic did not propagate", p)
						}
					}()
					pool.ParallelFor(64, 1, func(_, lo, _ int) {
						if lo == 17 {
							panic("boom")
						}
					})
				}()
			}
		})
	}
}

// TestIdleWorkerSleeps pins the idle loop's cost: a worker with nothing to
// steal goes to sleep after a bounded number of attempts instead of
// spinning, so the failed steals and parks of a run stay within a small
// multiple of the tasks it executed however long the tasks take. (The
// dry-spinning loop this replaced logged tens of thousands of each for a
// few dozen tasks.)
func TestIdleWorkerSleeps(t *testing.T) {
	pool := NewPool(2)
	st := pool.ParallelFor(64, 1, func(_, _, _ int) { time.Sleep(200 * time.Microsecond) })
	if st.Executed == 0 {
		t.Fatal("no tasks executed")
	}
	if idle := st.Parks + st.FailedSteals; idle > 20*st.Executed {
		t.Errorf("parks %d + failed steals %d = %d for %d tasks, want at most %d",
			st.Parks, st.FailedSteals, idle, st.Executed, 20*st.Executed)
	}
}
