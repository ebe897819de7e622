package sched

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// mutexDeque is the pre-Chase–Lev mutex-guarded deque, kept verbatim as
// the sequential model the lock-free deque is checked against
// (TestDequeMatchesSequentialModel).
type mutexDeque struct {
	mu    sync.Mutex
	tasks []*Task
}

func (d *mutexDeque) push(t *Task) {
	d.mu.Lock()
	d.tasks = append(d.tasks, t)
	d.mu.Unlock()
}

func (d *mutexDeque) pop() (*Task, bool) {
	d.mu.Lock()
	n := len(d.tasks)
	if n == 0 {
		d.mu.Unlock()
		return nil, false
	}
	t := d.tasks[n-1]
	d.tasks[n-1] = nil
	d.tasks = d.tasks[:n-1]
	d.mu.Unlock()
	return t, true
}

func (d *mutexDeque) steal() (*Task, bool) {
	d.mu.Lock()
	if len(d.tasks) == 0 {
		d.mu.Unlock()
		return nil, false
	}
	t := d.tasks[0]
	copy(d.tasks, d.tasks[1:])
	d.tasks[len(d.tasks)-1] = nil
	d.tasks = d.tasks[:len(d.tasks)-1]
	d.mu.Unlock()
	return t, true
}

func newDeque() *deque {
	d := &deque{}
	d.init()
	return d
}

// TestDequeMatchesSequentialModel: without concurrency the Chase–Lev deque
// is a plain double-ended queue — a random push/pop/steal sequence returns
// the same tasks in the same order as the mutex-guarded model, across ring
// growth and index wrap-around.
func TestDequeMatchesSequentialModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d, model := newDeque(), &mutexDeque{}
	tasks := make([]Task, 4*ringInit)
	for i := range tasks {
		tasks[i] = func(int) {}
	}
	for step := 0; step < 50000; step++ {
		var got, want *Task
		var ok, wantOK bool
		switch op := rng.Intn(5); {
		case op < 2 && len(model.tasks) < len(tasks):
			task := &tasks[rng.Intn(len(tasks))]
			d.push(task)
			model.push(task)
			continue
		case op < 4:
			got, ok = d.pop()
			want, wantOK = model.pop()
		default:
			got, ok = d.steal()
			want, wantOK = model.steal()
		}
		if got != want || ok != wantOK {
			t.Fatalf("step %d: deque returned (%p, %v), model (%p, %v)", step, got, ok, want, wantOK)
		}
	}
}

// TestDequeOwnerLIFO: the owner pops in reverse push order.
func TestDequeOwnerLIFO(t *testing.T) {
	d := newDeque()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		t := Task(func(int) { got = append(got, i) })
		d.push(&t)
	}
	for {
		task, ok := d.pop()
		if !ok {
			break
		}
		(*task)(0)
	}
	if len(got) != 100 {
		t.Fatalf("popped %d of 100", len(got))
	}
	for i, v := range got {
		if v != 99-i {
			t.Fatalf("pop order not LIFO at %d: got %d", i, v)
		}
	}
}

// TestDequeStealFIFO: a thief takes the oldest task first.
func TestDequeStealFIFO(t *testing.T) {
	d := newDeque()
	var got []int
	for i := 0; i < 50; i++ {
		i := i
		t := Task(func(int) { got = append(got, i) })
		d.push(&t)
	}
	for {
		task, ok := d.steal()
		if !ok {
			break
		}
		(*task)(0)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("steal order not FIFO at %d: got %d", i, v)
		}
	}
}

// TestDequeGrowth: pushing far past the initial ring capacity keeps every
// task, in order, across the ring doublings.
func TestDequeGrowth(t *testing.T) {
	d := newDeque()
	const n = 10 * ringInit
	seen := make([]bool, n)
	for i := 0; i < n; i++ {
		i := i
		t := Task(func(int) { seen[i] = true })
		d.push(&t)
	}
	count := 0
	for {
		task, ok := d.pop()
		if !ok {
			break
		}
		(*task)(0)
		count++
	}
	if count != n {
		t.Fatalf("recovered %d of %d tasks after growth", count, n)
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("task %d lost during ring growth", i)
		}
	}
}

// TestDequeInterleavedPushPopWraps exercises index wrap-around: the ring
// indices keep increasing while the occupancy stays small.
func TestDequeInterleavedPushPopWraps(t *testing.T) {
	d := newDeque()
	executed := 0
	bump := Task(func(int) { executed++ })
	for round := 0; round < 20*ringInit; round++ {
		d.push(&bump)
		d.push(&bump)
		for k := 0; k < 2; k++ {
			task, ok := d.pop()
			if !ok {
				t.Fatalf("round %d: deque lost a task", round)
			}
			(*task)(0)
		}
	}
	if want := 40 * ringInit; executed != want {
		t.Fatalf("executed %d, want %d", executed, want)
	}
}

// TestDequeConcurrentStealers: one owner pushing and popping against many
// thieves; every task must execute exactly once. Run with -race this is
// the memory-ordering smoke test for the Chase–Lev implementation.
func TestDequeConcurrentStealers(t *testing.T) {
	const (
		nTasks   = 20000
		nThieves = 4
	)
	d := newDeque()
	hits := make([]int32, nTasks)
	var done atomic.Bool
	var wg sync.WaitGroup
	for th := 0; th < nThieves; th++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				if task, ok := d.steal(); ok {
					(*task)(0)
				}
			}
			// Drain whatever is left after the owner finished.
			for {
				task, ok := d.steal()
				if !ok {
					return
				}
				(*task)(0)
			}
		}()
	}
	for i := 0; i < nTasks; i++ {
		i := i
		task := Task(func(int) { atomic.AddInt32(&hits[i], 1) })
		d.push(&task)
		if i%3 == 0 {
			if task, ok := d.pop(); ok {
				(*task)(0)
			}
		}
	}
	// Owner drains its remainder, racing the thieves for the last items.
	for {
		task, ok := d.pop()
		if !ok {
			break
		}
		(*task)(0)
	}
	done.Store(true)
	wg.Wait()
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("task %d executed %d times", i, h)
		}
	}
}

// TestPoolMatchesSerialExpectation: a ParallelFor covers its range exactly
// once, in as many tasks as its binary splitting has leaves — the sum and
// the Executed count a serial walk of the same splits gives.
func TestPoolMatchesSerialExpectation(t *testing.T) {
	const grain = 16
	var leaves func(n int) int64
	leaves = func(n int) int64 {
		if n <= grain {
			return 1
		}
		return leaves(n/2) + leaves(n-n/2)
	}
	for _, p := range []int{1, 3, 8} {
		for _, n := range []int{1, 5, 1000, 4096} {
			var sum int64
			st := NewPool(p).ParallelFor(n, grain, func(w, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt64(&sum, int64(i))
				}
			})
			if want := int64(n) * int64(n-1) / 2; sum != want {
				t.Fatalf("p=%d n=%d: sum %d, want %d", p, n, sum, want)
			}
			if want := leaves(n); st.Executed != want {
				t.Fatalf("p=%d n=%d: Executed %d, want %d", p, n, st.Executed, want)
			}
		}
	}
}

// TestParallelForTinyNSingleTask: the automatic grain no longer fans tiny
// ranges out into unit tasks — n < workers runs as one task (the
// regression test for the grain clamp).
func TestParallelForTinyNSingleTask(t *testing.T) {
	pool := NewPool(8)
	hits := make([]int32, 5)
	st := pool.ParallelFor(len(hits), 0, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d hit %d times", i, h)
		}
	}
	if st.Executed != 1 {
		t.Errorf("tiny ParallelFor spawned %d tasks, want 1", st.Executed)
	}
}

// TestParallelForDefaultGrainClamp: automatic grain never goes below
// DefaultMinGrain, and explicit grains are honored unchanged.
func TestParallelForDefaultGrainClamp(t *testing.T) {
	pool := NewPool(8)
	n := 4 * DefaultMinGrain // small enough that n/(8p) would be < MinGrain
	var chunks int64
	st := pool.ParallelFor(n, 0, func(w, lo, hi int) {
		atomic.AddInt64(&chunks, 1)
		if hi-lo > DefaultMinGrain {
			t.Errorf("chunk [%d,%d) exceeds grain", lo, hi)
		}
	})
	if chunks != 4 {
		t.Errorf("got %d chunks, want 4", chunks)
	}
	if st.Executed != 4 {
		t.Errorf("Executed = %d, want 4", st.Executed)
	}
	// Explicit grain 1 still splits fully.
	var unit int64
	pool.ParallelFor(10, 1, func(w, lo, hi int) { atomic.AddInt64(&unit, 1) })
	if unit != 10 {
		t.Errorf("explicit grain 1 produced %d chunks, want 10", unit)
	}
}

func BenchmarkDequePushPop(b *testing.B) {
	d := newDeque()
	task := Task(func(int) {})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.push(&task)
		d.pop()
	}
}

func BenchmarkDequeSteal(b *testing.B) {
	d := newDeque()
	task := Task(func(int) {})
	for i := 0; i < 1024; i++ {
		d.push(&task)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := d.steal(); !ok {
			b.StopTimer()
			for j := 0; j < 1024; j++ {
				d.push(&task)
			}
			b.StartTimer()
		}
	}
}

func BenchmarkParallelFor(b *testing.B) {
	work := func(w, lo, hi int) {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += float64(i % 17)
		}
		_ = s
	}
	for _, p := range []int{1, 2, 4, 8} {
		b.Run("p="+string(rune('0'+p)), func(b *testing.B) {
			pool := NewPool(p)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pool.ParallelFor(1<<14, 8, work)
			}
		})
	}
}
