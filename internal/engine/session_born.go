package engine

import (
	"slices"

	"octgb/internal/core"
)

// bornGroup is the number of consecutive block-store slots one group sum
// of a Born row covers. It fixes the shape of the canonical sum, so it is a
// constant of the session format, not a tuning knob: 16 makes the second
// level of a 2 000-partner row 125 additions per atom and keeps a group's
// re-add (16 blocks) cheaper than the block evaluation that dirtied it.
const bornGroup = 16

// pushRadii recomputes every Born radius exactly from the cached sums and
// re-pushes to the energy solver the ones that drifted past the radius
// tolerance relative to their pushed value, returning the push count.
// With markLeaves set, the owning leaf of every push is added to the
// frame's changed-input set; the resweep path recomputes every energy
// entry anyway and skips the marking. The push RULE is identical on both
// paths — pushes depend only on the frame stream, which is what keeps
// oracle and incremental sessions bitwise aligned.
func (ss *Session) pushRadii(markLeaves bool) int {
	rtol := ss.opts.radiusTolerance
	pushed := 0
	for i := range ss.rTree {
		r := ss.bornRadius(i)
		ss.rTree[i] = r
		d := r - ss.rPushed[i]
		if d < 0 {
			d = -d
		}
		if d > rtol*r {
			ss.rPushed[i] = r
			ss.es.SetRadius(int32(i), r)
			pushed++
			if markLeaves {
				ss.markULeaf(ss.aLeafOf[i])
			}
		}
	}
	return pushed
}

// bornRadius is atom i's (tree order) exact Born radius from its near row
// and its leaf's pushed far total, read at the atom's current position.
func (ss *Session) bornRadius(i int) float64 {
	leaf := ss.aLeafOf[i]
	return ss.bs.BornRadiusFromSums(int32(i), leaf, ss.sAtomNear[i], ss.farTotal[4*leaf:4*leaf+4])
}

// rederiveBorn rebuilds one Born driver segment against the refit ball of
// the driver's current points, repairs the reverse index of the rows that
// entered or left its near list, marks the T_A nodes that entered or left
// its far list for a far re-sum, and resets the driver's slack budget. The
// driver's blocks are left stale: only a moved driver can breach, and the
// frame re-evaluates a moved driver's blocks regardless.
func (ss *Session) rederiveBorn(qLeaf int32) {
	ql := ss.qDense[qLeaf]
	ss.oldNear = append(ss.oldNear[:0], ss.bornNear[ql]...)
	ss.oldSlot = append(ss.oldSlot[:0], ss.bornEntrySlot[ql]...)
	ss.oldFar = append(ss.oldFar[:0], ss.bornFar[ql]...)
	c, r := currentBall(ss.bs.TQ, qLeaf)
	ss.bs.BuildBornDriverSlack(&ss.scratch, qLeaf, c, r)
	ss.bornNear[ql] = appendANodes(ss.bornNear[ql][:0], ss.scratch.Near)
	ss.bornFar[ql] = appendANodes(ss.bornFar[ql][:0], ss.scratch.Far)
	ss.markFarChanges(ss.oldFar, ss.bornFar[ql])

	// Both near lists come out of the traversal in ascending node order, so
	// one merge finds the rows that left (the driver comes out of the row's
	// partner list), the rows that entered (it goes in, at its place in the
	// ascending order), and the rows that stayed (same slot; only the
	// entry's index within the driver's list may have moved). A row that
	// left or entered has shifted slots from the change on.
	old, nw := ss.oldNear, ss.bornNear[ql]
	slots := core.Resize(ss.bornEntrySlot[ql], len(nw))
	ss.bornEntrySlot[ql] = slots
	i, j := 0, 0
	for i < len(old) || j < len(nw) {
		switch {
		case j == len(nw) || (i < len(old) && old[i] < nw[j]):
			a, at := old[i], int(ss.oldSlot[i])
			ss.bornPartners[a] = slices.Delete(ss.bornPartners[a], at, at+1)
			ss.reslotRow(a, at)
			i++
		case i == len(old) || nw[j] < old[i]:
			a := nw[j]
			at, _ := slices.BinarySearch(ss.bornPartners[a], ql)
			ss.bornPartners[a] = slices.Insert(ss.bornPartners[a], at, ql)
			ss.reslotRow(a, at)
			j++
		default:
			slots[j] = ss.oldSlot[i]
			i++
			j++
		}
	}
	ss.resetRefQ(qLeaf, r)
}

// reslotRow rewrites, after a partner was inserted at or deleted from slot
// `from` of row aLeaf, the slot every later partner's entry records, and
// marks the row slot-shifted. A partner's entry for the row is found by
// binary search in its ascending near list.
func (ss *Session) reslotRow(aLeaf int32, from int) {
	pp := ss.bornPartners[aLeaf]
	for at := from; at < len(pp); at++ {
		k, _ := slices.BinarySearch(ss.bornNear[pp[at]], aLeaf)
		ss.bornEntrySlot[pp[at]][k] = int32(at)
	}
	if !ss.markSlot[aLeaf] {
		ss.markSlot[aLeaf] = true
		ss.slotDirty = append(ss.slotDirty, aLeaf)
	}
}

// markFarChanges marks for a far re-sum the nodes that are in one of a
// driver's old and new far lists but not in the other. A node in both keeps
// its term, which moves only with a structural refresh, and so its sum.
func (ss *Session) markFarChanges(old, nw []int32) {
	for _, l := range [2][]int32{old, nw} {
		for _, a := range l {
			ss.inFar[a] = !ss.inFar[a]
		}
	}
	for _, l := range [2][]int32{old, nw} {
		for _, a := range l {
			if ss.inFar[a] {
				ss.inFar[a] = false
				ss.markFarDirty(a)
			}
		}
	}
}

func (ss *Session) markFarDirty(aNode int32) {
	if !ss.markFar[aNode] {
		ss.markFar[aNode] = true
		ss.farDirty = append(ss.farDirty, aNode)
	}
}

// rowStoreSizes returns the lengths of one row's block store, group sums
// and group marks at its current partner count.
func (ss *Session) rowStoreSizes(aLeaf int32) (blocks, groups, marks int) {
	cnt := int(ss.bs.TA.Nodes[aLeaf].Count)
	p := len(ss.bornPartners[aLeaf])
	g := (p + bornGroup - 1) / bornGroup
	return p * cnt, g * cnt, g
}

// sizeRowStores resizes one row's stores after its partner count changed;
// the values are rebuilt by whoever changed the layout.
func (ss *Session) sizeRowStores(aLeaf int32) {
	nBlk, nGrp, nMark := ss.rowStoreSizes(aLeaf)
	ss.rowBlk[aLeaf] = core.Resize(ss.rowBlk[aLeaf], nBlk)
	ss.rowGrp[aLeaf] = core.Resize(ss.rowGrp[aLeaf], nGrp)
	ss.grpDirty[aLeaf] = core.Resize(ss.grpDirty[aLeaf], nMark)
}

func (ss *Session) resetRefQ(qLeaf int32, ballR float64) {
	lo, hi := ss.bs.TQ.PointRange(qLeaf)
	copy(ss.refPosQ[lo:hi], ss.bs.TQ.Points[lo:hi])
	ss.dispRefQ[qLeaf] = 0
	ss.refBallRQ[qLeaf] = ballR
}

// rebuildBornPartners derives the reverse index (T_A leaf -> drivers whose
// near lists contain it), in ascending driver order, and every entry's slot
// in its row — counted first, so each list is filled in place in an
// exactly sized view.
func (ss *Session) rebuildBornPartners() {
	ta, ar := ss.bs.TA, &ss.arenas
	count := make([]int32, len(ta.Nodes))
	total := 0
	for _, near := range ss.bornNear {
		for _, a := range near {
			count[a]++
		}
		total += len(near)
	}
	ar.slots = core.Resize(ar.slots, total)
	ar.partners = core.Resize(ar.partners, total)
	slots, partners := ar.slots, ar.partners
	for _, a := range ta.LeafIdx {
		ss.bornPartners[a] = cut(&partners, int(count[a]))[:0]
	}
	for ql, near := range ss.bornNear {
		ss.bornEntrySlot[ql] = cut(&slots, len(near))
		for k, a := range near {
			// Drivers are visited ascending, so the append position IS the
			// entry's slot in the row's partner-ordered block store.
			ss.bornEntrySlot[ql][k] = int32(len(ss.bornPartners[a]))
			ss.bornPartners[a] = append(ss.bornPartners[a], int32(ql))
		}
	}
}

// rebuildRowStores cuts every row's block store, group sums and group
// marks to its partner count out of three counted arenas, the marks
// cleared. The values are rebuilt by the caller.
func (ss *Session) rebuildRowStores() {
	ta, ar := ss.bs.TA, &ss.arenas
	var nBlk, nGrp, nMark int
	for _, a := range ta.LeafIdx {
		b, g, m := ss.rowStoreSizes(a)
		nBlk, nGrp, nMark = nBlk+b, nGrp+g, nMark+m
	}
	ar.blocks = core.Resize(ar.blocks, nBlk)
	ar.groups = core.Resize(ar.groups, nGrp)
	ar.marks = core.Resize(ar.marks, nMark)
	clear(ar.marks)
	blocks, groups, marks := ar.blocks, ar.groups, ar.marks
	for _, a := range ta.LeafIdx {
		b, g, m := ss.rowStoreSizes(a)
		ss.rowBlk[a] = cut(&blocks, b)
		ss.rowGrp[a] = cut(&groups, g)
		ss.grpDirty[a] = cut(&marks, m)
	}
}

// sumFarNodes rebuilds the canonical per-node far sums and gradients
// (drivers ascending, entries in traversal order) and pushes them down the
// atoms tree: every node's with all set, otherwise those of the nodes
// re-derivations marked (markFarDirty) — each in the same order, so a
// partial rebuild leaves the bits a full one would. A term reads only node
// centres and the T_Q moments, which move only with a structural refresh,
// and ñ_Q, fixed for the session, so it is computed where it is added
// rather than stored.
func (ss *Session) sumFarNodes(all bool) {
	if !all && len(ss.farDirty) == 0 {
		return
	}
	if all {
		clear(ss.sNodeFar)
	}
	for _, a := range ss.farDirty {
		clear(ss.sNodeFar[4*a : 4*a+4])
	}
	for ql, far := range ss.bornFar {
		qLeaf := ss.bs.TQ.LeafIdx[ql]
		for _, a := range far {
			if all || ss.markFar[a] {
				ss.bs.AddBornFarTerm(a, qLeaf, ss.sNodeFar)
			}
		}
	}
	for _, a := range ss.farDirty {
		ss.markFar[a] = false
	}
	ss.farDirty = ss.farDirty[:0]
	ss.bs.FarTotals(ss.sNodeFar, ss.farTotal)
}

// sumSlots writes to dst the left-to-right sum of src's consecutive
// len(dst)-wide slots. Both levels of a Born row's canonical sum — blocks
// into a group, groups into the row — are this one loop. Columns are summed
// four at a time in registers: a column's additions happen in slot order
// whichever way the loop nest is turned, and this way no partial sum makes
// the round trip through dst.
func sumSlots(dst, src []float64) {
	w := len(dst)
	src = src[:len(src)/w*w]
	j := 0
	for ; j+4 <= w; j += 4 {
		var s0, s1, s2, s3 float64
		for at := j; at < len(src); at += w {
			v := src[at : at+4 : at+4]
			s0 += v[0]
			s1 += v[1]
			s2 += v[2]
			s3 += v[3]
		}
		dst[j], dst[j+1], dst[j+2], dst[j+3] = s0, s1, s2, s3
	}
	for ; j < w; j++ {
		var sum float64
		for at := j; at < len(src); at += w {
			sum += src[at]
		}
		dst[j] = sum
	}
}

// resumBornRow rebuilds one T_A leaf's near-field row in the canonical
// two-level order: the dirty groups are re-added from the row's block
// store, then the row from its group sums.
func (ss *Session) resumBornRow(aLeaf int32) {
	lo, hi := ss.bs.TA.PointRange(aLeaf)
	cnt := int(hi - lo)
	blk, grp := ss.rowBlk[aLeaf], ss.rowGrp[aLeaf]
	for g, dirty := range ss.grpDirty[aLeaf] {
		if dirty {
			ss.grpDirty[aLeaf][g] = false
			end := min((g+1)*bornGroup*cnt, len(blk))
			sumSlots(grp[g*cnt:(g+1)*cnt], blk[g*bornGroup*cnt:end])
		}
	}
	sumSlots(ss.sAtomNear[lo:hi], grp)
}

// recomputeDriverBlocks re-evaluates every cached block of one Born
// driver in a single range call — a driver's entries share its q-tile, and
// each entry writes a disjoint row range of the scratch, so the batched
// call produces every block bitwise as a single-entry call would — and
// marks the group of every block it rewrote.
func (ss *Session) recomputeDriverBlocks(ql int) {
	qNode := ss.bs.TQ.LeafIdx[ql]
	pairs := ss.rowPairs.Near[:0]
	for _, a := range ss.bornNear[ql] {
		lo, hi := ss.bs.TA.PointRange(a)
		clear(ss.rowScratch[lo:hi])
		pairs = append(pairs, core.NodePair{A: a, B: qNode})
	}
	ss.rowPairs.Near = pairs
	ss.bs.EvalBornNearRange(&ss.rowPairs, 0, len(pairs), ss.rowScratch)
	slots := ss.bornEntrySlot[ql]
	for k, a := range ss.bornNear[ql] {
		lo, hi := ss.bs.TA.PointRange(a)
		cnt := int(hi - lo)
		at := int(slots[k])
		copy(ss.rowBlk[a][at*cnt:(at+1)*cnt], ss.rowScratch[lo:hi])
		ss.grpDirty[a][at/bornGroup] = true
	}
}

// recomputeRowBlocks re-evaluates the atom rows [lo, hi) of one T_A leaf's
// cached blocks, row-major: its partners' blocks are contiguous in
// ascending driver order, so the row-batched evaluator writes the block
// store in place. Every group of the row is then dirty.
func (ss *Session) recomputeRowBlocks(aLeaf, lo, hi int32) {
	ss.bs.EvalBornRowBlocks(aLeaf, lo, hi, ss.bornPartners[aLeaf], ss.rowBlk[aLeaf])
	for g := range ss.grpDirty[aLeaf] {
		ss.grpDirty[aLeaf][g] = true
	}
	ss.markDirtyRow(aLeaf)
}
