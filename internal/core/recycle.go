package core

import (
	"sync"
	"sync/atomic"
)

// Solver storage is recycled: a solver handed back with Release backs the
// next NewBornSolver or NewEpolSolver, which rebuilds every array in place
// (octree.Tree.Rebuild for the trees, resize for the rest) and clears the
// ones it accumulates into. Back-to-back one-shot solves — the engines'
// cold paths, a session's refreshes — thus allocate their solvers' bytes
// once rather than once per solve. The pools hold solvers whose owner is
// done with them; a live solver is never in them.
var bornPool, epolPool sync.Pool // of *offer[BornSolver], *offer[EpolSolver]

// offer is one release of a solver, put into its pool twice. A sync.Pool
// keeps the first Put of a P in a slot only that P's Gets see, and the
// goroutine that releases a solver and the one that builds the next are
// often on different Ps: a cold solve parks in between. On two Ps about
// one cold solve in four missed its donor that way; the second Put lands
// where every P can take it. The first take to claim the offer wins, and
// the copy met later is dropped.
type offer[T any] struct {
	s     *T
	taken atomic.Bool
}

// give offers s to the pool's next take.
func give[T any](p *sync.Pool, s *T) {
	o := &offer[T]{s: s}
	p.Put(o)
	p.Put(o)
}

// take returns a released solver from the pool, or nil when there is none.
func take[T any](p *sync.Pool) *T {
	for {
		o, _ := p.Get().(*offer[T])
		if o == nil {
			return nil
		}
		if o.taken.CompareAndSwap(false, true) {
			return o.s
		}
	}
}

// Release hands the solver's storage — both octrees and every payload
// stream — to the next NewBornSolver. The caller must be done with the
// solver and with every EpolSolver built over its atoms tree: nothing may
// read them afterwards. Release on nil does nothing.
func (s *BornSolver) Release() {
	if s == nil {
		return
	}
	give(&bornPool, s)
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
	give(&epolPool, s)
}

// oversized reports whether a released solver whose storage holds
// capacity elements is too large to back a build that needs need of them:
// more than twice the need. Such a donor goes to the garbage collector
// instead, so a long-lived solver never pins a larger molecule's arrays.
func oversized(capacity, need int) bool { return capacity > 2*need }

// resize returns s with length n, reallocating only when its capacity
// falls short; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
