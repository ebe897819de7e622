package engine

import (
	"slices"

	"octgb/internal/core"
)

// rederiveEpol is rederiveBorn's energy-phase counterpart: the driver's
// near and far lists are rebuilt, its far sum recomputed from the frozen
// epoch aggregates, and its entry-value and weight stores resized. The
// entry VALUES and WEIGHTS are left stale: the weights are set by reweigh
// once every re-derivation of the frame has updated the reverse index, and
// an energy driver is only re-derived when its own atoms moved, which puts
// its leaf in the frame's changed-input set and forces a re-evaluation of
// every entry it counts later in the frame regardless.
func (ss *Session) rederiveEpol(aLeaf int32) {
	vl := int(ss.aDense[aLeaf])
	c, r := currentBall(ss.bs.TA, aLeaf)
	ss.es.BuildEpolDriverSlack(&ss.scratch, aLeaf, c, r)
	ss.epolNear[vl] = append(ss.epolNear[vl][:0], ss.scratch.Near...)
	ss.epolFar[vl] = appendANodes(ss.epolFar[vl][:0], ss.scratch.Far)
	ss.epolNearVal[vl] = core.Resize(ss.epolNearVal[vl], len(ss.epolNear[vl]))
	ss.epolW[vl] = core.Resize(ss.epolW[vl], len(ss.epolNear[vl]))
	ss.recomputeEpolFar(vl)
	ss.markDirtyV(int32(vl))
	lo, hi := ss.bs.TA.PointRange(aLeaf)
	copy(ss.refPosA[lo:hi], ss.bs.TA.Points[lo:hi])
	ss.dispRefA[aLeaf] = 0
	ss.refBallRA[aLeaf] = r
}

// rebuildEpolPartners derives the energy phase's reverse index (u-leaf ->
// drivers whose near lists contain it, ascending), counted first and cut
// from exact arenas.
func (ss *Session) rebuildEpolPartners() {
	ta, ar := ss.bs.TA, &ss.arenas
	count := make([]int32, len(ta.Nodes))
	total := 0
	for _, near := range ss.epolNear {
		for _, p := range near {
			count[p.A]++
		}
		total += len(near)
	}
	ar.epolPartners = core.Resize(ar.epolPartners, total)
	ar.epolPartnerPos = core.Resize(ar.epolPartnerPos, total)
	partners, partnerPos := ar.epolPartners, ar.epolPartnerPos
	for _, u := range ta.LeafIdx {
		ss.epolPartners[u] = cut(&partners, int(count[u]))[:0]
		ss.epolPartnerPos[u] = cut(&partnerPos, int(count[u]))[:0]
	}
	for vl, near := range ss.epolNear {
		for k, p := range near {
			ss.epolPartners[p.A] = append(ss.epolPartners[p.A], int32(vl))
			ss.epolPartnerPos[p.A] = append(ss.epolPartnerPos[p.A], int32(k))
		}
	}
}

// entryWeight is what the near entry of leaf u in driver leaf v counts
// for in the driver's sum — the session's form of the engines' block
// weight. A leaf's block with itself and a one-sided block (v is not in
// u's own near list) count once. A mirrored block — each leaf in the
// other's list — has the same value in both lists, the pair term being
// symmetric, so its owner (core.OwnsMutualBlock) counts it twice and the
// other driver skips it. Mutuality is read off the lists themselves (the
// reverse index of v holds u's driver index iff v is in u's list), not
// re-tested on geometry: both drivers then agree on it whatever the slack
// margins and balls they were derived against.
func (ss *Session) entryWeight(u, v int32) uint8 {
	if u == v {
		return 1
	}
	ul := ss.aDense[u]
	if _, mirrored := slices.BinarySearch(ss.epolPartners[v], ul); !mirrored {
		return 1
	}
	if core.OwnsMutualBlock(ul, ss.aDense[v]) {
		return 2
	}
	return 0
}

// weighDriver sets the weight of every near entry of one driver.
func (ss *Session) weighDriver(vl int) {
	w := ss.epolW[vl]
	for k, p := range ss.epolNear[vl] {
		w[k] = ss.entryWeight(p.A, p.B)
	}
}

// reweigh updates, after a frame's re-derivations rebuilt the reverse
// index, the weights around driver leaf v, which must have moved this
// frame: all of v's own entries, and the entry of v in every driver that
// holds one (whether the block is mirrored there depends on v's list). A
// partner whose weight changed resums even if no value did. v itself, and
// any entry of v whose weight left 0, need no mark: v moved, so the frame
// re-evaluates every entry v counts and every entry of v.
func (ss *Session) reweigh(v int32) {
	ss.weighDriver(int(ss.aDense[v]))
	pk := ss.epolPartnerPos[v]
	for idx, xl := range ss.epolPartners[v] {
		w := ss.entryWeight(v, ss.bs.TA.LeafIdx[xl])
		if ws := ss.epolW[xl]; ws[pk[idx]] != w {
			ws[pk[idx]] = w
			ss.markDirtyV(xl)
		}
	}
}

// cutDirtyEntries sizes each driver's dirty-entry list to the entries it
// counts (weight > 0), out of one exact arena. A frame names each of them at
// most once and no other, so the lists never outgrow their views; they are
// re-cut whenever weights change.
func (ss *Session) cutDirtyEntries() {
	total := 0
	for _, ws := range ss.epolW {
		total += counted(ws)
	}
	ss.arenas.ent = core.Resize(ss.arenas.ent, total)
	ent := ss.arenas.ent
	for vl, ws := range ss.epolW {
		ss.dirtyEnt[vl] = cut(&ent, counted(ws))[:0]
	}
}

// counted is the number of entries of weight > 0.
func counted(ws []uint8) int {
	n := 0
	for _, w := range ws {
		if w != 0 {
			n++
		}
	}
	return n
}

// ownEntries names every entry driver vl counts (weight > 0) as dirty.
func (ss *Session) ownEntries(vl int32) {
	ent := ss.dirtyEnt[vl][:0]
	for k, w := range ss.epolW[vl] {
		if w != 0 {
			ent = append(ent, int32(k))
		}
	}
	ss.dirtyEnt[vl] = ent
}

// evalDirtyEntries re-evaluates one driver's dirty entries, drains its
// dirty list and resums the driver.
func (ss *Session) evalDirtyEntries(vl int32) {
	if ent := ss.dirtyEnt[vl]; len(ent) > 0 {
		near, nodes := ss.epolNear[vl], ss.bs.TA.Nodes
		ss.es.EvalEpolNearEntryValues(near, ent, ss.epolNearVal[vl])
		for _, k := range ent {
			ss.epolPairs += int64(nodes[near[k].A].Count) * int64(nodes[near[k].B].Count)
		}
		ss.dirtyEnt[vl] = ent[:0]
	}
	ss.resumEpolNear(int(vl))
}

// resumEpolNear rebuilds one driver's near sum from its cached entry
// values in traversal order, each times its weight. The value of an entry
// of weight 0 is stale but finite (zero, or what it was when last
// evaluated), so it adds ±0, and a sum that starts at +0 is never −0: every
// partial sum has the bits it would have if the entry were skipped.
func (ss *Session) resumEpolNear(vl int) {
	var sum float64
	vals := ss.epolNearVal[vl]
	w := ss.epolW[vl][:len(vals)]
	for k, v := range vals {
		sum += float64(w[k]) * v
	}
	ss.nearVal[vl] = sum
}

// recomputeEpolFar resums one energy driver's far sum; all inputs (node
// centers, the charge bins and their moments) are epoch-frozen, so
// between re-derivations the cached value never changes.
func (ss *Session) recomputeEpolFar(vl int) {
	ss.farVal[vl] = ss.es.EvalEpolFarDriver(ss.epolFar[vl], ss.bs.TA.LeafIdx[vl])
}

func (ss *Session) sumEnergy() float64 {
	var raw float64
	for vl := range ss.nearVal {
		raw += ss.nearVal[vl] + ss.farVal[vl]
	}
	return raw * core.EnergyScale()
}
