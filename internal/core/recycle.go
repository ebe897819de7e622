package core

import (
	"slices"
	"sync"
)

// FreeList is the one owner of retired storage: solvers, session stores
// and traversal tiles whose owner is done with them wait in it for the
// next build of their kind, which rebuilds them in place (Resize,
// octree.Tree.Rebuild), so back-to-back builds allocate their storage
// once. Takes are newest first, and the list drops its oldest donors to
// the garbage collector to hold at most FreeCap bytes.
type FreeList struct {
	mu     sync.Mutex
	held   int64
	donors []donor // oldest first
}

// donor is a retired value, the build size it has room for (in the unit
// its kind's Take states a need in) and the bytes it holds.
type donor struct {
	v     any
	size  int
	bytes int64
}

// FreeCap fits what two 3 000-atom sessions leave when they close together
// (~115 MB each, stores and solvers), or many cold solves' solvers.
const FreeCap = 256 << 20

// Free is the process's free list; every recycling path goes through it.
var Free FreeList

// Put hands v to the next Take of its type. A donor larger than FreeCap is
// not kept.
func (l *FreeList) Put(v any, size int, bytes int64) {
	if bytes > FreeCap {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.held+bytes > FreeCap {
		l.held -= l.donors[0].bytes
		l.donors = slices.Delete(l.donors, 0, 1)
	}
	l.donors = append(l.donors, donor{v, size, bytes})
	l.held += bytes
}

// Take returns the newest *T in l that has room for no more than twice a
// build of size need, or a new one. A *T met on the way that has room for
// more goes to the garbage collector, so a small build never pins a large
// one's storage.
func Take[T any](l *FreeList, need int) *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := len(l.donors) - 1; i >= 0; i-- {
		d := l.donors[i]
		if v, ok := d.v.(*T); ok {
			l.held -= d.bytes
			l.donors = slices.Delete(l.donors, i, i+1)
			if d.size <= 2*need {
				return v
			}
		}
	}
	return new(T)
}

// Held returns the bytes l holds.
func (l *FreeList) Held() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.held
}

// Drain drops every donor l holds to the garbage collector.
func (l *FreeList) Drain() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.donors, l.held = nil, 0
}

// Release hands the solver's storage — both octrees and every payload
// stream — to the next NewBornSolver, sized in atoms plus q-points. The
// caller must be done with the solver and with every EpolSolver built over
// its atoms tree: nothing may read them afterwards. Release on nil does
// nothing.
func (s *BornSolver) Release() {
	if s != nil {
		Free.Put(s, cap(s.TA.Points)+cap(s.TQ.Points), s.MemoryBytes())
	}
}

// Release hands the solver's storage to the next NewEpolSolver; the atoms
// tree it shares is not its to give and stays with its owner. The caller
// must be done with the solver and with every Restrict copy of it. A
// Restrict copy shares its parent's bins, so its Release does nothing, as
// does Release on nil.
func (s *EpolSolver) Release() {
	if s == nil || s.restricted {
		return
	}
	s.T = nil
	Free.Put(s, cap(s.q), s.MemoryBytes())
}

// Resize returns s with length n, reallocating only when its capacity
// falls short; the contents are unspecified.
func Resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
