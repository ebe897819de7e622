// Package sched is the shared-memory parallel runtime of the library — the
// stand-in for the cilk++ work-stealing scheduler the paper uses inside
// each compute node. Each worker owns a double-ended queue; it pushes and
// pops its own work at the bottom (LIFO, cache-warm) and steals from the
// top of a random victim's deque (FIFO, oldest work) when it runs dry —
// exactly the Blumofe–Leiserson discipline the paper describes (§IV-A,
// "Dynamic load balancing among threads").
//
// The deque is a lock-free Chase–Lev ring buffer: the owner's push/pop
// never takes a lock, and a compare-and-swap is needed only on the steal
// path and when the owner races a thief for the last element.
package sched

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// Task is a unit of work. It receives the executing worker's id so tasks
// can use per-worker accumulators without synchronization.
type Task func(worker int)

// Stats reports scheduler activity for one Run.
type Stats struct {
	Executed     int64 // tasks executed
	Steals       int64 // successful steals
	FailedSteals int64 // steal attempts that found an empty deque or lost a race
	Parks        int64 // times a worker went to sleep for lack of work
}

// Add accumulates other into s — the aggregation the engines use when
// combining per-rank or per-phase scheduler stats.
func (s *Stats) Add(other Stats) {
	s.Executed += other.Executed
	s.Steals += other.Steals
	s.FailedSteals += other.FailedSteals
	s.Parks += other.Parks
}

// ringInit is the initial per-worker ring capacity (a power of two). The
// ring doubles on overflow, so this only sets the smallest allocation.
const ringInit = 64

// ring is one immutable-capacity circular buffer generation of a deque.
// Slots are atomic because thieves read them concurrently with the
// owner's writes; indices wrap modulo the capacity via mask.
type ring struct {
	mask int64
	slot []atomic.Pointer[Task]
}

func newRing(n int64) *ring {
	return &ring{mask: n - 1, slot: make([]atomic.Pointer[Task], n)}
}

// deque is a lock-free Chase–Lev work-stealing deque (Chase & Lev, SPAA
// 2005, in the memory-ordered formulation of Lê et al., PPoPP 2013). The
// owner pushes and pops at bottom; thieves take from top.
//
// Memory-ordering argument (see DESIGN.md §"Chase–Lev deque"): Go's
// sync/atomic operations are sequentially consistent, which subsumes every
// fence of the C11 version. The owner is the only writer of bottom and of
// the buffer pointer; top only ever increases, and does so exclusively
// through compare-and-swap, so each index t is won by exactly one of
// {owner popping its last element, one thief}. A thief validates its slot
// read by the CAS on top: if the CAS succeeds, no pop or prior steal
// consumed index t, and the owner cannot have overwritten slot t&mask
// because push grows the ring before bottom-top reaches the capacity.
// Grown rings copy the live range [top, bottom) and old generations remain
// valid (and garbage-collected) for thieves still holding them.
type deque struct {
	bottom atomic.Int64
	top    atomic.Int64
	buf    atomic.Pointer[ring]
}

func (d *deque) init() {
	d.buf.Store(newRing(ringInit))
}

// push appends t at the bottom. Owner-only. Tasks travel as pointers so
// a spawn boxes its closure exactly once, and the deque's own operations
// never allocate (outside ring growth).
func (d *deque) push(t *Task) {
	b := d.bottom.Load()
	tp := d.top.Load()
	r := d.buf.Load()
	if b-tp >= int64(len(r.slot)) {
		// Full: double the capacity, copying the live range.
		nr := newRing(int64(len(r.slot)) * 2)
		for i := tp; i < b; i++ {
			nr.slot[i&nr.mask].Store(r.slot[i&r.mask].Load())
		}
		d.buf.Store(nr)
		r = nr
	}
	r.slot[b&r.mask].Store(t)
	d.bottom.Store(b + 1)
}

// pop removes the most recently pushed task. Owner-only.
func (d *deque) pop() (*Task, bool) {
	b := d.bottom.Load() - 1
	d.bottom.Store(b)
	t := d.top.Load()
	if t > b {
		// Empty; restore the canonical empty state bottom == top.
		d.bottom.Store(b + 1)
		return nil, false
	}
	r := d.buf.Load()
	task := r.slot[b&r.mask].Load()
	if b > t {
		return task, true
	}
	// Single element left: race thieves for it via top.
	won := d.top.CompareAndSwap(t, t+1)
	d.bottom.Store(b + 1)
	if !won {
		return nil, false
	}
	return task, true
}

// steal removes the oldest task. Safe from any goroutine.
func (d *deque) steal() (*Task, bool) {
	t := d.top.Load()
	b := d.bottom.Load()
	if t >= b {
		return nil, false
	}
	r := d.buf.Load()
	task := r.slot[t&r.mask].Load()
	if !d.top.CompareAndSwap(t, t+1) {
		return nil, false // lost the race to the owner or another thief
	}
	return task, true
}

// Pool is a work-stealing scheduler with a fixed number of workers.
type Pool struct {
	p      int
	deques []deque
	stats  Stats

	pending int64 // outstanding tasks across all deques + in flight

	// Idle workers sleep on idle (guarded by idleMu); sleepers counts the
	// workers between registering as idle and waking, so a Spawn only
	// takes the lock when somebody may need the signal.
	idleMu   sync.Mutex
	idle     sync.Cond
	sleepers atomic.Int32

	panicMu  sync.Mutex
	panicked interface{} // first task panic value, re-raised by Run
}

// NewPool creates a pool with p workers (p ≤ 0 selects GOMAXPROCS) backed
// by lock-free Chase–Lev deques.
func NewPool(p int) *Pool {
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	pl := &Pool{p: p, deques: make([]deque, p)}
	pl.idle.L = &pl.idleMu
	for i := range pl.deques {
		pl.deques[i].init()
	}
	return pl
}

// Workers returns the worker count.
func (pl *Pool) Workers() int { return pl.p }

// stealFrom takes the oldest task of victim's deque, counting the outcome.
func (pl *Pool) stealFrom(victim int) (t *Task, ok bool) {
	t, ok = pl.deques[victim].steal()
	if ok {
		atomic.AddInt64(&pl.stats.Steals, 1)
	} else {
		atomic.AddInt64(&pl.stats.FailedSteals, 1)
	}
	return t, ok
}

// Spawn enqueues t on the given worker's deque. It may only be called from
// inside a running task (with that task's worker id) or before Run with
// worker 0; the pending count keeps Run from returning early.
func (pl *Pool) Spawn(worker int, t Task) {
	atomic.AddInt64(&pl.pending, 1)
	pl.deques[worker].push(&t)
	if pl.sleepers.Load() > 0 {
		pl.idleMu.Lock()
		pl.idle.Signal()
		pl.idleMu.Unlock()
	}
}

// Run executes root and everything it transitively spawns, returning when
// the pool is quiescent. Stats for this run are returned. If any task
// panics, the remaining queued work is drained and the first panic value
// is re-raised on the caller's goroutine (so a library user sees an
// ordinary panic rather than a crashed anonymous worker).
func (pl *Pool) Run(root Task) Stats {
	atomic.StoreInt64(&pl.pending, 0)
	pl.stats = Stats{}
	pl.panicked = nil
	pl.Spawn(0, root)

	var wg sync.WaitGroup
	for w := 0; w < pl.p; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pl.workerLoop(w)
		}(w)
	}
	wg.Wait()
	if pl.panicked != nil {
		panic(fmt.Sprintf("sched: task panicked: %v", pl.panicked))
	}
	return Stats{
		Executed:     atomic.LoadInt64(&pl.stats.Executed),
		Steals:       atomic.LoadInt64(&pl.stats.Steals),
		FailedSteals: atomic.LoadInt64(&pl.stats.FailedSteals),
		Parks:        atomic.LoadInt64(&pl.stats.Parks),
	}
}

// drySweeps is how many times over a worker tries the other deques before
// it goes to sleep: long enough to catch the next spawn of a running
// ParallelFor split, short enough not to occupy a core somebody else
// (another rank's pool, an HTTP handler) has work for.
const drySweeps = 4

func (pl *Pool) workerLoop(w int) {
	rng := rand.New(rand.NewSource(int64(w)*2654435761 + 97))
	for {
		t, ok := pl.deques[w].pop()
		// Local deque empty: try to steal the oldest work from a random
		// victim (stealing oldest reduces inter-thread communication, as
		// the paper notes for cilk++).
		for dry := 0; !ok && dry < drySweeps*(pl.p-1); dry++ {
			victim := rng.Intn(pl.p - 1)
			if victim >= w {
				victim++
			}
			t, ok = pl.stealFrom(victim)
		}
		if !ok {
			if t, ok = pl.park(w); !ok {
				return
			}
		}
		pl.exec(w, *t)
	}
}

// park puts worker w, whose own deque is empty, to sleep until a Spawn
// signals or the run ends; it returns a stolen task, or false once nothing
// is pending. No wake-up is lost: the worker registers in sleepers before
// one last sweep of the other deques, and a Spawn pushes before it reads
// sleepers, so either the sweep sees the task or the Spawn sees the
// sleeper — and then signals under idleMu, which the worker holds until
// it is waiting. Work left in a deque the sweep lost a race for is not
// stranded either: its owner is awake and pops it.
func (pl *Pool) park(w int) (*Task, bool) {
	pl.idleMu.Lock()
	defer pl.idleMu.Unlock()
	for atomic.LoadInt64(&pl.pending) != 0 {
		pl.sleepers.Add(1)
		for v := 0; v < pl.p; v++ {
			if v == w {
				continue
			}
			if t, ok := pl.stealFrom(v); ok {
				pl.sleepers.Add(-1)
				return t, true
			}
		}
		atomic.AddInt64(&pl.stats.Parks, 1)
		pl.idle.Wait()
		pl.sleepers.Add(-1)
	}
	return nil, false
}

func (pl *Pool) exec(w int, t Task) {
	defer func() {
		if r := recover(); r != nil {
			pl.panicMu.Lock()
			if pl.panicked == nil {
				pl.panicked = r
			}
			pl.panicMu.Unlock()
		}
		atomic.AddInt64(&pl.stats.Executed, 1)
		if atomic.AddInt64(&pl.pending, -1) == 0 {
			pl.idleMu.Lock()
			pl.idle.Broadcast() // the run is over: release the sleepers
			pl.idleMu.Unlock()
		}
	}()
	t(w)
}

// DefaultMinGrain is the smallest chunk ParallelFor's automatic grain will
// produce. Chunks below this size cost more in scheduling than they can
// recover in load balance (a near-field leaf-pair kernel runs in well
// under a microsecond), so tiny n no longer fans out into 8p unit tasks.
const DefaultMinGrain = 32

// ParallelFor executes fn over [0, n) split into chunks of at most grain
// (grain ≤ 0 picks n/(8p) clamped to at least DefaultMinGrain), using
// recursive binary splitting so stealing moves large half-ranges first.
// It blocks until all chunks complete and returns the run's stats.
func (pl *Pool) ParallelFor(n, grain int, fn func(worker, lo, hi int)) Stats {
	if n <= 0 {
		return Stats{}
	}
	if grain <= 0 {
		grain = n / (8 * pl.p)
		if grain < DefaultMinGrain {
			grain = DefaultMinGrain
		}
	}
	var split func(lo, hi int) Task
	split = func(lo, hi int) Task {
		return func(w int) {
			for hi-lo > grain {
				mid := lo + (hi-lo)/2
				pl.Spawn(w, split(mid, hi))
				hi = mid
			}
			fn(w, lo, hi)
		}
	}
	return pl.Run(split(0, n))
}

// ListScheduleMakespan computes the deterministic greedy (list-scheduling)
// makespan of the given task weights on p identical workers: tasks are
// assigned in order to the least-loaded worker. By Graham's bound this is
// within 2× of optimal and models what a work-stealing scheduler achieves;
// the virtual-time machine model uses it to turn measured per-task work
// into a p-thread execution time on hardware we do not have.
func ListScheduleMakespan(weights []float64, p int) float64 {
	if p <= 1 {
		var s float64
		for _, w := range weights {
			s += w
		}
		return s
	}
	loads := make([]float64, p)
	for _, w := range weights {
		// Find least-loaded worker (p is small; linear scan is fine and
		// deterministic).
		min := 0
		for i := 1; i < p; i++ {
			if loads[i] < loads[min] {
				min = i
			}
		}
		loads[min] += w
	}
	var max float64
	for _, l := range loads {
		if l > max {
			max = l
		}
	}
	return max
}
