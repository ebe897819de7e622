package core

import (
	"math"

	"octgb/internal/octree"
)

// This file implements the two-phase (traversal / evaluation) form of the
// treecodes. The recursive traversals in born.go and epol.go interleave
// the near–far decision with the arithmetic; here the decision tree is run
// ONCE by a flat, allocation-light traversal that only records which node
// pairs interact and how (NodePair lists) — the single-tree walks stackless
// over the octree's pre-order skip index, the dual-tree ones over an
// explicit pair stack — and the arithmetic becomes flat, branch-predictable
// loops over the octrees' SoA mirrors. The split buys three things:
//
//  1. the evaluation loops stream contiguous float64 arrays with the
//     traversal control flow hoisted out entirely;
//  2. a built list is reusable across repeated evaluations over the same
//     geometry (the engines evaluate it with work-stealing workers);
//  3. list entries are uniform, independent work items — exactly the
//     fine-grained tasks the Chase–Lev scheduler load-balances well.
//
// The construction mirrors the recursive traversals exactly — same visit
// order, same acceptance tests — so the recursive path remains the oracle:
// Stats captured at build time are identical to the recursion's, and
// evaluating a list reproduces the recursion's sums term for term.

// NodePair is one interaction-list entry: an (A-tree node, B-tree node)
// pair. For Born lists A is a T_A node and B a T_Q node; for energy lists
// both come from the atoms octree.
type NodePair struct {
	A, B int32
}

// InteractionList is the output of one list-construction traversal: the
// exact near-field block pairs, the accepted far-field cell pairs, and the
// work counters the traversal recorded (identical to what the equivalent
// recursive traversal would have reported).
type InteractionList struct {
	Near []NodePair
	Far  []NodePair
	// Mutual holds the near blocks of a leaf-driven energy list that stand
	// for their mirror image as well: the block's other leaf would meet
	// this one exactly too, so one of the two drivers evaluates it and the
	// energy kernels count it twice (EpolSolver.blockWeight). Empty in
	// every other kind of list.
	Mutual []NodePair
	stats  Stats
	stack  pairStack // the dual builders' traversal stack, kept so a tile can resume

	// symmetric marks the list of the dual energy traversal, which holds
	// each unordered node pair once: the energy kernels count an entry with
	// A != B twice (BuildEpolDualList). Every other list holds ordered
	// pairs.
	symmetric bool
}

// Stats returns the traversal's work counters: NodesVisited from the
// construction phase, FarEval/NearPairs describing the recorded work
// (which evaluation performs verbatim).
func (l *InteractionList) Stats() Stats { return l.stats }

// MemoryBytes is the capacity the list holds, its traversal stack's too.
func (l *InteractionList) MemoryBytes() int64 {
	return 8 * int64(cap(l.Near)+cap(l.Far)+cap(l.Mutual)+cap(l.stack))
}

// reset empties the list while keeping its capacity, so rebuilds into the
// same InteractionList (a worker's tile, a session's driver lists) reuse
// its backing arrays instead of re-growing them from scratch.
func (l *InteractionList) reset() {
	l.Near = l.Near[:0]
	l.Far = l.Far[:0]
	l.Mutual = l.Mutual[:0]
	l.stack = l.stack[:0]
	l.stats = Stats{}
	l.symmetric = false
}

// rangeLen is the point count of a node range packed as start | end<<32
// (BornSolver.aRange, EpolSolver.uRange).
func rangeLen(r int64) int64 { return r>>32 - r&0xffffffff }

// pairStack is a tiny explicit stack of node pairs reused across the
// dual-tree builders; grow-only, so a solver-scoped builder performs no allocation
// after warm-up when lists are rebuilt (ε-sweeps).
type pairStack []NodePair

func (st *pairStack) push(a, b int32) { *st = append(*st, NodePair{a, b}) }
func (st *pairStack) pop() NodePair {
	s := *st
	p := s[len(s)-1]
	*st = s[:len(s)-1]
	return p
}

// ---------------------------------------------------------------------------
// Born-radius treecode lists
// ---------------------------------------------------------------------------

// fillBornLeaves appends the traversals of whole q-leaves, from qLo on,
// until l holds at least limit entries or qHi is reached, and returns the
// first leaf it did not traverse. Each q-leaf walks T_A in pre-order over
// the tree's compact geometry streams: an accepted node jumps to the end of
// its subtree (Skip), anything else steps to the next index — its first
// child, or for a leaf the next subtree — which is the recursion's visit
// order exactly, so the lists, the Stats and the order of every
// accumulator addition are the recursion's.
func (s *BornSolver) fillBornLeaves(l *InteractionList, qLo, qHi, limit int) int {
	ta, tq := s.TA, s.TQ
	skip := ta.Skip
	cx, cy, cz, cr := ta.CX[:len(skip)], ta.CY[:len(skip)], ta.CZ[:len(skip)], ta.CR[:len(skip)]
	aRange := s.aRange[:len(skip)]
	k2 := s.sepK2
	near, far, st := l.Near, l.Far, l.stats
	ql := qLo
	for ; ql < qHi && len(near)+len(far) < limit; ql++ {
		q := tq.LeafIdx[ql]
		qx, qy, qz, qr := tq.CX[q], tq.CY[q], tq.CZ[q], tq.CR[q]
		qCount := int64(tq.Nodes[q].Count)
		for a := 0; a < len(skip); {
			st.NodesVisited++
			dx, dy, dz := cx[a]-qx, cy[a]-qy, cz[a]-qz
			next := int(skip[a])
			if wellSeparated2(dx*dx+dy*dy+dz*dz, cr[a], qr, k2) {
				far = append(far, NodePair{int32(a), q})
				a = next
				continue
			}
			if next == a+1 { // a leaf too close to approximate
				near = append(near, NodePair{int32(a), q})
				st.NearPairs += rangeLen(aRange[a]) * qCount
			}
			a++
		}
	}
	st.FarEval += int64(len(far) - len(l.Far))
	l.Near, l.Far, l.stats = near, far, st
	return ql
}

// BuildBornDualList runs the dual-tree Born traversal of [6] (OCT_CILK) —
// both octrees at once from their roots, a pair too close to approximate
// split at the non-leaf, or of two non-leaves at the larger — and returns
// its interaction list. Near entries pair a T_A leaf with a T_Q leaf; far
// entries may involve internal nodes of either tree.
func (s *BornSolver) BuildBornDualList() *InteractionList {
	return s.BuildBornDualListInto(new(InteractionList))
}

// BuildBornDualListInto is BuildBornDualList reusing an existing list's
// backing arrays.
func (s *BornSolver) BuildBornDualListInto(l *InteractionList) *InteractionList {
	l.reset()
	if len(s.TA.Nodes) != 0 && len(s.TQ.Nodes) != 0 {
		l.stack.push(0, 0)
		s.fillBornDual(l, math.MaxInt)
	}
	return l
}

// appendPair appends p, doubling the capacity when it is full. A whole
// dual Born list runs to tens of thousands of entries; append's 1.25x
// growth past 256 elements reallocates it some twenty times and copies
// about four times its final length on the way, doubling under twice.
func appendPair(s []NodePair, p NodePair) []NodePair {
	if len(s) == cap(s) {
		t := make([]NodePair, len(s), max(2*cap(s), 1024))
		copy(t, s)
		s = t
	}
	return append(s, p)
}

// fillBornDual continues the dual-tree traversal held on l's stack until
// the stack is empty or l holds at least limit entries.
func (s *BornSolver) fillBornDual(l *InteractionList, limit int) {
	stack := l.stack
	for len(stack) > 0 && len(l.Near)+len(l.Far) < limit {
		p := stack.pop()
		l.stats.NodesVisited++
		an, qn := &s.TA.Nodes[p.A], &s.TQ.Nodes[p.B]
		if wellSeparated2(an.Center.Dist2(qn.Center), an.Radius, qn.Radius, s.sepK2) {
			l.Far = appendPair(l.Far, p)
			l.stats.FarEval++
			continue
		}
		if an.Leaf && qn.Leaf {
			l.Near = appendPair(l.Near, p)
			l.stats.NearPairs += int64(an.Count) * int64(qn.Count)
		} else {
			stack = s.bornChildren(p, stack)
		}
	}
	l.stack = stack
}

// bornChildren appends the pairs p splits into, in a stack's push order:
// the larger node's children (T_A's on a tie or when T_Q's is a leaf),
// each with the other node.
func (s *BornSolver) bornChildren(p NodePair, dst []NodePair) []NodePair {
	an, qn := &s.TA.Nodes[p.A], &s.TQ.Nodes[p.B]
	if qn.Leaf || (!an.Leaf && an.Radius >= qn.Radius) {
		for c := 7; c >= 0; c-- {
			if ch := an.Children[c]; ch != octree.NoChild {
				dst = append(dst, NodePair{ch, p.B})
			}
		}
		return dst
	}
	for c := 7; c >= 0; c-- {
		if ch := qn.Children[c]; ch != octree.NoChild {
			dst = append(dst, NodePair{p.A, ch})
		}
	}
	return dst
}

// bornTileEntries is the size at which the streamed Born phase cuts its
// tiles: 32 KB of node pairs, still cache-resident when the kernels read
// back what the traversal just wrote.
const bornTileEntries = 4096

// StreamBornLeaves evaluates the single-tree traversal of the q-leaves
// [qLo, qHi) without keeping its list: the traversal fills tile up to
// bornTileEntries, the range kernels evaluate it, and the same storage
// takes the next tile — the engines' Born phase, whose lists are read once
// and never kept.
// Tiles end on q-leaf boundaries and far entries touch only sNode, near
// entries only sAtom, so every accumulator sees its additions in list
// order and the result is bitwise that of the materialised form.
func (s *BornSolver) StreamBornLeaves(tile *InteractionList, qLo, qHi int, sNode, sAtom []float64) Stats {
	return s.streamBornLeaves(tile, qLo, qHi, bornTileEntries, sNode, sAtom)
}

func (s *BornSolver) streamBornLeaves(tile *InteractionList, qLo, qHi, limit int, sNode, sAtom []float64) Stats {
	tile.reset()
	for qLo < qHi {
		qLo = s.fillBornLeaves(tile, qLo, qHi, limit)
		s.evalBornTile(tile, sNode, sAtom)
	}
	return tile.stats
}

// StreamBornDual is the streamed form of the dual-tree traversal below the
// given root pairs, taken in order (DualFrontier's roots, or {0, 0} for
// the whole traversal) — see StreamBornLeaves.
func (s *BornSolver) StreamBornDual(tile *InteractionList, roots []NodePair, sNode, sAtom []float64) Stats {
	return s.streamBornDual(tile, roots, bornTileEntries, sNode, sAtom)
}

func (s *BornSolver) streamBornDual(tile *InteractionList, roots []NodePair, limit int, sNode, sAtom []float64) Stats {
	tile.reset()
	for i := len(roots) - 1; i >= 0; i-- {
		tile.stack.push(roots[i].A, roots[i].B)
	}
	for len(tile.stack) > 0 {
		s.fillBornDual(tile, limit)
		s.evalBornTile(tile, sNode, sAtom)
	}
	return tile.stats
}

// evalBornTile evaluates the entries a tile holds and empties it, keeping
// its Stats and traversal stack for the next fill.
func (s *BornSolver) evalBornTile(tile *InteractionList, sNode, sAtom []float64) {
	s.EvalBornList(tile, sNode, sAtom)
	tile.Near, tile.Far = tile.Near[:0], tile.Far[:0]
}

// bornTileCap and epolTileCap are the per-row capacities of the vector
// kernels' packed q- and v-tiles (bornnear_amd64.go, epolnear_amd64.go), in
// elements. Leaves normally hold ≤ LeafSize (16) points; depth-capped
// degenerate leaves (or large configured LeafSize) can exceed them, and
// those runs fall back to the scalar kernel. They are declared here, not
// beside the kernels, so that the tests sizing a leaf past them build on
// every architecture.
const (
	bornTileCap = 64
	epolTileCap = 64
)

// EvalBornNearRange evaluates the near entries [lo, hi) of the list.
// Entries accumulate into disjoint sAtom rows only when their T_A leaves
// are disjoint; parallel callers must partition entries, not rows.
//
// The single-tree builder emits near entries in runs sharing a q-leaf, so
// entries are processed run-blocked: the q-side tile (coordinates and
// quadrature weights, ≤ LeafSize points — comfortably L1-resident) is
// sliced once per run and swept over every atom row of every entry in
// the run. Accumulation order is identical to the entry-at-a-time form.
func (s *BornSolver) EvalBornNearRange(l *InteractionList, lo, hi int, sAtom []float64) {
	near := l.Near[lo:hi]
	if hasAVX2FMA && len(near) > 0 {
		s.evalBornNearRangeVec(near, sAtom)
		return
	}
	for len(near) > 0 {
		q := near[0].B
		run := 1
		for run < len(near) && near[run].B == q {
			run++
		}
		s.evalBornNearRun(near[:run], q, sAtom)
		near = near[run:]
	}
}

// evalBornNearRun evaluates a run of near entries sharing the q-leaf q.
// This is the portable reference kernel: the q-side arrays are sliced to
// the leaf range and clipped to a common length up front so the compiler
// proves the inner-loop indexing in bounds and drops the per-element
// checks, and each atom row sweeps the tile with a single scalar
// accumulator. Leaves average only a handful of points (DefaultLeafSize
// 16, median fill ~5), so the row loop is short and µop-issue-bound —
// multi-row unroll-and-jam variants were measured slower here (the jam
// spills loop invariants and reloads slice bases; see DESIGN.md §11).
// On amd64 with AVX2+FMA the run is instead handed to the vector kernel
// in bornnear_amd64.s, which jams rows in SIMD registers.
func (s *BornSolver) evalBornNearRun(entries []NodePair, q int32, sAtom []float64) {
	for _, p := range entries {
		alo, ahi := s.TA.PointRange(p.A)
		s.evalBornNearRows(q, alo, ahi, sAtom, 0)
	}
}

// evalBornNearRows is evalBornNearRun for the atom rows [alo, ahi) alone.
// Atom row i accumulates into sAtom[i-base]: base is 0 for a tree-order
// accumulator and the leaf's first row when sAtom is one entry's block
// (EvalBornRowBlocks).
func (s *BornSolver) evalBornNearRows(q, alo, ahi int32, sAtom []float64, base int32) {
	qlo, qhi := s.TQ.PointRange(q)
	ax, ay, az := s.TA.X, s.TA.Y, s.TA.Z
	qx := s.TQ.X[qlo:qhi]
	n := len(qx)
	qy := s.TQ.Y[qlo:qhi][:n]
	qz := s.TQ.Z[qlo:qhi][:n]
	wx := s.wnX[qlo:qhi][:n]
	wy := s.wnY[qlo:qhi][:n]
	wz := s.wnZ[qlo:qhi][:n]
	r4 := s.r4
	for i := alo; i < ahi; i++ {
		px, py, pz := ax[i], ay[i], az[i]
		var acc float64
		if r4 {
			for j := 0; j < n; j++ {
				dx, dy, dz := qx[j]-px, qy[j]-py, qz[j]-pz
				d2 := dx*dx + dy*dy + dz*dz
				if d2 >= 1e-12 {
					acc += (wx[j]*dx + wy[j]*dy + wz[j]*dz) * (1 / (d2 * d2))
				}
			}
		} else {
			for j := 0; j < n; j++ {
				dx, dy, dz := qx[j]-px, qy[j]-py, qz[j]-pz
				d2 := dx*dx + dy*dy + dz*dz
				if d2 >= 1e-12 {
					acc += (wx[j]*dx + wy[j]*dy + wz[j]*dz) * (1 / (d2 * d2 * d2))
				}
			}
		}
		sAtom[i-base] += acc
	}
}

// EvalBornFarRange evaluates the far entries [lo, hi) of the list: each
// entry adds Q's far term at A's center and its gradient (farTerm) into
// sNode[4A : 4A+4]. Single-tree lists emit runs of entries sharing a
// q-leaf; the vector kernel takes four entries of a run at a time.
func (s *BornSolver) EvalBornFarRange(l *InteractionList, lo, hi int, sNode []float64) {
	if hasAVX2FMA && lo < hi {
		s.evalBornFarRangeVec(l.Far[lo:hi], sNode)
		return
	}
	for _, p := range l.Far[lo:hi] {
		s.AddBornFarTerm(p.A, p.B, sNode)
	}
}

// EvalBornList evaluates a whole interaction list serially into the
// caller's accumulators and returns the list's Stats — the flat-path
// equivalent of the recursive traversal that built the list.
func (s *BornSolver) EvalBornList(l *InteractionList, sNode, sAtom []float64) Stats {
	s.EvalBornFarRange(l, 0, len(l.Far), sNode)
	s.EvalBornNearRange(l, 0, len(l.Near), sAtom)
	return l.stats
}

// ---------------------------------------------------------------------------
// Energy (APPROX-EPOL) treecode lists
// ---------------------------------------------------------------------------

// appendEpolLeaf appends the leaf-driven APPROX-EPOL traversal of the
// driver leaf with dense index vl: the stackless pre-order walk of
// fillBornLeaves with Fig. 3's order of tests — a leaf is always an exact
// block, only internal nodes are tried as far cells — and each exact block
// filed by what it counts for in this driver's sum (blockWeight): Near
// once, Mutual twice, and not at all when the other leaf's driver owns it.
func (s *EpolSolver) appendEpolLeaf(l *InteractionList, vl int) {
	t := s.T
	skip := t.Skip
	cx, cy, cz, cr := t.CX[:len(skip)], t.CY[:len(skip)], t.CZ[:len(skip)], t.CR[:len(skip)]
	v := t.LeafIdx[vl]
	vx, vy, vz, vr := cx[v], cy[v], cz[v], cr[v]
	vCount := rangeLen(s.uRange[v])
	var buf [64]int32
	vAnc := s.ancestors(v, buf[:0])
	st := l.stats
	for u := 0; u < len(skip); {
		st.NodesVisited++
		next := int(skip[u])
		if next == u+1 {
			if w := s.blockWeight(int32(u), v, vAnc); w != 0 {
				dst := &l.Near
				if w == 2 {
					dst = &l.Mutual
				}
				*dst = append(*dst, NodePair{int32(u), v})
				st.NearPairs += rangeLen(s.uRange[u]) * vCount
			}
			u = next
			continue
		}
		dx, dy, dz := cx[u]-vx, cy[u]-vy, cz[u]-vz
		if epolFar2(dx*dx+dy*dy+dz*dz, cr[u], vr, s.sep2) {
			l.Far = append(l.Far, NodePair{int32(u), v})
			st.FarEval += s.nnz(int32(u)) * s.nnz(v)
			u = next
			continue
		}
		u++
	}
	l.stats = st
}

// StreamEpolLeaves evaluates the leaf-driven APPROX-EPOL traversal of the
// atoms-octree leaves [vLo, vHi) without keeping its list — step 6 of the
// leaf-driven engines, streamed like their step 2 (StreamBornLeaves). The
// tile holds one driver leaf's entries at a time, and each driver's sum is
// added to *raw as it completes, so *raw sees the same additions in the
// same order however [vLo, vHi) is cut into calls: chunks run in ascending
// order into one accumulator are the serial sum, bit for bit. It returns
// the Stats of the traversals.
func (s *EpolSolver) StreamEpolLeaves(tile *InteractionList, vLo, vHi int, raw *float64) Stats {
	tile.reset()
	for vl := vLo; vl < vHi; vl++ {
		s.appendEpolLeaf(tile, vl)
		e, _ := s.EvalEpolList(tile)
		*raw += e
		tile.Near, tile.Mutual, tile.Far = tile.Near[:0], tile.Mutual[:0], tile.Far[:0]
	}
	return tile.stats
}

// BuildEpolDualList runs the dual-tree energy traversal — the OCT_CILK
// algorithm — from the root's self pair and returns its interaction list.
// The pair term q_i·q_j/f_GB is symmetric, so the traversal visits each
// UNORDERED node pair once (epolKind, epolChildren): a leaf's self pair is
// a near entry with A == B, and a mutual pair's value stands for its
// mirror image too. The list carries that factor of two itself, so
// EvalEpolList of it is the full raw sum: Σ self + 2·Σ mutual.
func (s *EpolSolver) BuildEpolDualList() *InteractionList {
	l := &InteractionList{symmetric: true}
	if len(s.T.Nodes) != 0 {
		l.stack.push(0, 0)
		s.fillEpolDual(l, math.MaxInt)
	}
	return l
}

// fillEpolDual continues the dual energy traversal held on l's stack until
// the stack is empty or l holds at least limit entries.
func (s *EpolSolver) fillEpolDual(l *InteractionList, limit int) {
	stack := l.stack
	for len(stack) > 0 && len(l.Near)+len(l.Far) < limit {
		p := stack.pop()
		l.stats.NodesVisited++
		switch s.epolKind(p) {
		case epolFar:
			l.Far = append(l.Far, p)
			l.stats.FarEval += s.nnz(p.A) * s.nnz(p.B)
		case epolNear:
			l.Near = append(l.Near, p)
			l.stats.NearPairs += int64(s.T.Nodes[p.A].Count) * int64(s.T.Nodes[p.B].Count)
		default:
			stack = s.epolChildren(p, stack)
		}
	}
	l.stack = stack
}

// DualList is the dual energy traversal held for repeated evaluation: the
// list of BuildEpolDualList cut at the pairs of an EpolDualFrontier, its
// roots. One flat Near/Far store holds every root's part in root order,
// root r's at Near[near[r]:near[r+1]] and Far[far[r]:far[r+1]], so a root
// is a symmetric list of its own (Root) that any worker can evaluate. Its
// Stats are the whole traversal's, the frontier's own visits included.
// The storage is the solver's (BuildDualList), and a rebuild or Release
// recycles it with the rest.
type DualList struct {
	list      InteractionList
	near, far []int32
}

// reset empties the list while keeping its capacity.
func (d *DualList) reset() {
	d.list.reset()
	d.list.symmetric = true
	d.near, d.far = d.near[:0], d.far[:0]
}

// Roots returns the number of roots the list is cut at.
func (d *DualList) Roots() int { return max(len(d.near)-1, 0) }

// Root returns root r's part of the list as a list of its own, sharing
// the store; EvalEpolList of it is the root's part of the raw sum.
func (d *DualList) Root(r int) InteractionList {
	return InteractionList{
		Near:      d.list.Near[d.near[r]:d.near[r+1]],
		Far:       d.list.Far[d.far[r]:d.far[r+1]],
		symmetric: true,
	}
}

// Stats returns the work counters of the whole traversal.
func (d *DualList) Stats() Stats { return d.list.stats }

// bytes is the capacity the list holds.
func (d *DualList) bytes() int64 { return d.list.MemoryBytes() + 4*int64(cap(d.near)+cap(d.far)) }

// BuildDualList builds the dual energy traversal below the pairs of
// EpolDualFrontier(minRoots) into the solver's own storage and returns it.
// The list is read-only until the next BuildDualList or Release, so any
// number of goroutines may evaluate it at once; building it is not safe
// beside them.
func (s *EpolSolver) BuildDualList(minRoots int) *DualList {
	d := &s.dual
	d.reset()
	front, expand := s.EpolDualFrontier(minRoots)
	for _, p := range front {
		d.near = append(d.near, int32(len(d.list.Near)))
		d.far = append(d.far, int32(len(d.list.Far)))
		d.list.stack.push(p.A, p.B)
		s.fillEpolDual(&d.list, math.MaxInt)
	}
	d.near = append(d.near, int32(len(d.list.Near)))
	d.far = append(d.far, int32(len(d.list.Far)))
	d.list.stats.Add(expand)
	return d
}

// BuildDualRootInto builds the dual energy traversal below one root pair
// into tile, reusing its storage, and returns it: the same entries in the
// same order as that root's part of a BuildDualList, so EvalEpolList of it
// gives the same bits. It is the one-shot form, for a list evaluated once.
func (s *EpolSolver) BuildDualRootInto(tile *InteractionList, root NodePair) *InteractionList {
	tile.reset()
	tile.symmetric = true
	tile.stack.push(root.A, root.B)
	s.fillEpolDual(tile, math.MaxInt)
	return tile
}

// nnz returns the number of occupied Born-radius bins of a node — the
// number of far-field terms a bin-pair approximation against it costs.
func (s *EpolSolver) nnz(n int32) int64 {
	return int64(s.nz.start[n+1] - s.nz.start[n])
}

// evalEpolNearRun evaluates a run of near entries sharing the v-leaf v on
// the scalar path. The v-side tile (positions, charges, Born radii — ≤ LeafSize
// atoms, L1-resident) is sliced once per run; u-leaf rows are unrolled
// two-wide with independent accumulator chains so the sqrt/divide unit
// pipelines across rows (wider jams lose to register spills: every lane's
// invariants are f64 and x86-64 has 16 XMM registers). The self-pair term
// is handled by conditional overwrite inside the lane (the smooth kernel
// already evaluates to qi²/R_i at d²=0 up to rounding; the overwrite keeps
// it exact), which keeps the inner loop free of a taken branch. Two
// divider-port operations are removed per term: exp(−d²/4RᵢRⱼ) uses the
// inlined expNeg polynomial (fastexp.go) instead of the opaque math.Exp
// call, and its argument is formed as (d²·(−0.25·invRᵢ))·invRⱼ from the
// precomputed reciprocal radii instead of dividing.
func (s *EpolSolver) evalEpolNearRun(entries []NodePair, v int32) float64 {
	vlo, vhi := s.T.PointRange(v)
	x, y, z := s.T.X, s.T.Y, s.T.Z
	xv := x[vlo:vhi]
	n := len(xv)
	yv := y[vlo:vhi][:n]
	zv := z[vlo:vhi][:n]
	qv := s.q[vlo:vhi][:n]
	Rv := s.R[vlo:vhi][:n]
	iv := s.invR[vlo:vhi][:n]
	var sum float64
	for _, p := range entries {
		ulo, uhi := s.T.PointRange(p.A)
		i := ulo
		for ; i+2 <= uhi; i += 2 {
			px0, py0, pz0, q0, r0 := x[i], y[i], z[i], s.q[i], s.R[i]
			px1, py1, pz1, q1, r1 := x[i+1], y[i+1], z[i+1], s.q[i+1], s.R[i+1]
			g0 := -0.25 * s.invR[i]
			g1 := -0.25 * s.invR[i+1]
			d0 := int(i - vlo)
			var c0, c1 float64
			for j := 0; j < n; j++ {
				xj, yj, zj := xv[j], yv[j], zv[j]
				qj, rj, irj := qv[j], Rv[j], iv[j]
				dx, dy, dz := px0-xj, py0-yj, pz0-zj
				d2 := dx*dx + dy*dy + dz*dz
				t := q0 * qj / math.Sqrt(d2+r0*rj*expNeg(d2*g0*irj))
				if j == d0 {
					t = q0 * q0 / r0
				}
				c0 += t
				dx, dy, dz = px1-xj, py1-yj, pz1-zj
				d2 = dx*dx + dy*dy + dz*dz
				t = q1 * qj / math.Sqrt(d2+r1*rj*expNeg(d2*g1*irj))
				if j == d0+1 {
					t = q1 * q1 / r1
				}
				c1 += t
			}
			sum += c0 + c1
		}
		for ; i < uhi; i++ {
			px, py, pz, qi, ri := x[i], y[i], z[i], s.q[i], s.R[i]
			gi := -0.25 * s.invR[i]
			diag := int(i - vlo)
			var acc float64
			for j := 0; j < n; j++ {
				dx, dy, dz := px-xv[j], py-yv[j], pz-zv[j]
				d2 := dx*dx + dy*dy + dz*dz
				t := qi * qv[j] / math.Sqrt(d2+ri*Rv[j]*expNeg(d2*gi*iv[j]))
				if j == diag {
					t = qi * qi / ri
				}
				acc += t
			}
			sum += acc
		}
	}
	return sum
}

// EvalEpolFarPair evaluates one far-field entry over the nodes' bin
// moments (farPair). Returns the raw sum.
func (s *EpolSolver) EvalEpolFarPair(u, v int32) float64 {
	return s.farPair(u, v, &s.nz, u, v)
}

// EvalEpolNearRange sums the near entries [lo, hi) of the list. The
// builders emit near entries in runs sharing a v-leaf, so entries are
// processed run-blocked: the v-side tile is sliced once per run and swept
// over every u-row of every entry in the run. In a symmetric list a run's
// sum counts twice unless it is a leaf's self pair (epolRun).
func (s *EpolSolver) EvalEpolNearRange(l *InteractionList, lo, hi int) float64 {
	return s.evalEpolNear(l.Near[lo:hi], l.symmetric)
}

// evalEpolNear sums near entries, run by run, on the vector or the scalar
// path.
func (s *EpolSolver) evalEpolNear(near []NodePair, symmetric bool) float64 {
	if hasAVX2FMA && len(near) > 0 && len(s.uPos) > 0 {
		return s.evalEpolNearRangeVec(near, symmetric)
	}
	var sum float64
	for len(near) > 0 {
		v := near[0].B
		run, w := epolRun(near, symmetric)
		sum += w * s.evalEpolNearRun(near[:run], v)
		near = near[run:]
	}
	return sum
}

// epolRun returns the length of the leading run of near — the entries that
// share near[0]'s v-leaf — and what the run's sum counts for. An ordered
// list's entries all count once. A symmetric list's count twice, except a
// leaf's self pair (A == B), which is therefore a run of its own.
func epolRun(near []NodePair, symmetric bool) (run int, weight float64) {
	v := near[0].B
	run = 1
	if !symmetric {
		for run < len(near) && near[run].B == v {
			run++
		}
		return run, 1
	}
	if near[0].A == v {
		return 1, 1
	}
	for run < len(near) && near[run].B == v && near[run].A != v {
		run++
	}
	return run, 2
}

// EvalEpolNearEntryValues evaluates near entries of ONE driver segment in
// isolation, overwriting out[k] (parallel to near) with entry k's value
// for every k in idxs — or for every entry when idxs is nil. All entries
// of a driver segment share the driver's v-leaf, which lets the vector
// path pack the v-tile once for the whole batch instead of once per
// entry. Each value is bitwise the value a single-entry EvalEpolNearRange
// call produces — the canonical per-entry arithmetic that incremental
// entry caches are defined by.
func (s *EpolSolver) EvalEpolNearEntryValues(near []NodePair, idxs []int32, out []float64) {
	if len(near) == 0 {
		return
	}
	if hasAVX2FMA && len(s.uPos) > 0 {
		s.evalEpolNearEntryValuesVec(near, idxs, out)
		return
	}
	v := near[0].B
	if idxs == nil {
		for k := range near {
			out[k] = s.evalEpolNearRun(near[k:k+1], v)
		}
		return
	}
	for _, k := range idxs {
		out[k] = s.evalEpolNearRun(near[k:k+1], v)
	}
}

// EvalEpolFarRange sums the far entries [lo, hi) of the list — twice over
// in a symmetric list, whose far entries are all mutual pairs.
func (s *EpolSolver) EvalEpolFarRange(l *InteractionList, lo, hi int) float64 {
	var sum float64
	for _, p := range l.Far[lo:hi] {
		sum += s.EvalEpolFarPair(p.A, p.B)
	}
	if l.symmetric {
		sum *= 2
	}
	return sum
}

// EvalEpolList evaluates a whole energy interaction list serially and
// returns the raw sum (scale by EnergyScale) plus the list's Stats.
func (s *EpolSolver) EvalEpolList(l *InteractionList) (float64, Stats) {
	raw := s.EvalEpolNearRange(l, 0, len(l.Near)) + s.EvalEpolFarRange(l, 0, len(l.Far))
	if len(l.Mutual) > 0 {
		raw += 2 * s.evalEpolNear(l.Mutual, false)
	}
	return raw, l.stats
}
