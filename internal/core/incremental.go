package core

import (
	"octgb/internal/gb"
	"octgb/internal/geom"
	"octgb/internal/octree"
)

// This file holds the solver-side primitives of incremental (streaming)
// evaluation — engine.Session drives them. A session freezes the octree
// TOPOLOGY and, between structural refreshes, the node GEOMETRY (centers,
// radii, far-field aggregates, the energy side's bin moments among them)
// of both trees, then lets point positions drift under per-leaf slack
// margins. The primitives fall into three
// groups:
//
//   - in-place mutators that keep every storage mirror (SoA, vector row
//     tables) coherent with a moved point or a changed Born radius:
//     SetAtomPoint, SetQPoint, SetPointMirrors, SetRadius, RefreshGeometry;
//   - per-entry scalar evaluators with the exact arithmetic of the flat
//     Range kernels, so a value recomputed alone is bitwise the value a
//     full sweep produces: BornRadiusFromSums (AddBornFarTerm in born.go
//     and EvalEpolFarDriver, a driver's far list, in lists.go already
//     qualify);
//   - the row-major batched near evaluator EvalBornRowBlocks, which fills
//     one T_A leaf's block against each of a list of q-leaves with the
//     bits EvalBornNearRange gives the same entry alone;
//   - slack-aware single-driver list builders that classify against a
//     caller-supplied driver ball with BOTH sides' radii inflated by the
//     slack margin, so every far decision stays valid while geometry
//     drifts within slack: BuildBornDriverSlack, BuildEpolDriverSlack.

// slackFactor and minSlack size the drift margin of an enclosing ball: a
// twentieth of its radius plus a quarter of an ångström.
const (
	slackFactor = 0.05
	minSlack    = 0.25 // Å
)

// SlackMargin is the drift budget granted to an enclosing ball of radius r:
// slackFactor·r + minSlack. Both the session's re-derivation triggers and
// the inflated classification radii of the driver builders use it, which
// is what makes "points moved less than the margin" imply "every recorded
// far decision still satisfies the plain separation criterion".
func SlackMargin(r float64) float64 {
	return slackFactor*r + minSlack
}

// SetAtomPoint overwrites atom i's position (T_A tree order) in place,
// updating the octree point storage and its SoA mirrors.
// Node geometry is intentionally NOT touched — it stays frozen until
// RefreshGeometry — so far-field classifications and cached far values
// remain exactly reproducible between refreshes.
func (s *BornSolver) SetAtomPoint(i int32, p geom.Vec3) {
	s.TA.SetPoint(i, p)
}

// SetQPoint overwrites q-point i's position (T_Q tree order) in place,
// mirrors included. The point's quadrature weight and normal (wn) are
// translation invariant and untouched — the session only transports
// q-points rigidly with their owning atom.
func (s *BornSolver) SetQPoint(i int32, p geom.Vec3) {
	s.TQ.SetPoint(i, p)
}

// RefreshGeometry refits both octrees' node bounds to the current point
// positions and rebuilds what derives from node geometry: the far-kernel
// center table and the T_Q nodes' first moments, which are taken about the
// node centers (ñ_Q is position independent and comes out the same). This
// is the structural-refresh step of a session epoch: after it, far-field
// classifications and cached far values must be rebuilt by the caller.
func (s *BornSolver) RefreshGeometry() {
	s.TA.RefitAll()
	s.TQ.RefitAll()
	for n := range s.TA.Nodes {
		c := s.TA.Nodes[n].Center
		s.aCent[4*n], s.aCent[4*n+1], s.aCent[4*n+2] = c.X, c.Y, c.Z
	}
	s.sumQNodes()
}

// BornRadiusFromSums converts atom i's sums — its near row and the pushed
// far total of its leaf (FarTotals' four floats for the leaf), read at the
// atom's current position — into its Born radius: the per-atom arithmetic
// of PushIntegrals, exposed so the session can recompute radii from cached
// partial sums.
func (s *BornSolver) BornRadiusFromSums(i, leaf int32, near float64, far []float64) float64 {
	ta := s.TA
	sum := near + farAt(far, ta.CX[leaf], ta.CY[leaf], ta.CZ[leaf], ta.X[i], ta.Y[i], ta.Z[i])
	if s.r4 {
		return gb.BornFromIntegralR4(sum, s.atomR[i], s.rcap)
	}
	return gb.BornFromIntegral(sum, s.atomR[i], s.rcap)
}

// EvalBornRowBlocks evaluates the atom rows [lo, hi) of the T_A leaf a —
// a sub-range of its point range, or all of it — against each of the
// q-leaves in qLeaves (dense T_Q leaf indices, as StreamBornLeaves counts
// them). Entry k's block is the q-leaf's contribution to each atom of a,
// in row order, at out[k·Count(a) : (k+1)·Count(a)]; the call writes the
// rows' elements of every block and leaves the others as they are. It is
// the row-major counterpart of a driver's EvalBornNearRange call: there one
// q-tile sweeps many A-leaves, here one A-leaf meets many q-tiles, and the
// per-call work (tile buffer, kernel argument block) is done once for the
// whole list instead of once per entry. Every row is reduced on its own,
// so each element carries exactly the bits EvalBornNearRange produces for
// the one-entry list {(a, q)} into a zeroed accumulator, whatever the row
// range, on the vector and the scalar path alike.
func (s *BornSolver) EvalBornRowBlocks(a, lo, hi int32, qLeaves []int32, out []float64) {
	alo, ahi := s.TA.PointRange(a)
	cnt := int(ahi - alo)
	out = out[:len(qLeaves)*cnt]
	if len(out) == 0 || lo >= hi {
		return
	}
	for at := int(lo - alo); at < len(out); at += cnt {
		clear(out[at : at+int(hi-lo)])
	}
	if hasAVX2FMA {
		s.evalBornRowBlocksVec(alo, lo, hi, qLeaves, out)
		return
	}
	for k, ql := range qLeaves {
		s.evalBornNearRows(s.TQ.LeafIdx[ql], lo, hi, out[k*cnt:(k+1)*cnt], alo)
	}
}

// FarTotals pushes per-node far sums (four floats a node, as in
// NewAccumulators) down T_A: out[4n : 4n+4] is the cumulative ancestor
// total pushDown carries to node n, computed for every node in one forward
// sweep (parents precede children in the linearized layout). Atom i's
// Born radius is then BornRadiusFromSums(i, leaf(i), sAtom[i], out[4·leaf(i):]),
// exactly as PushIntegrals forms it.
func (s *BornSolver) FarTotals(sNode, out []float64) {
	for n := range s.TA.Nodes {
		var par []float64
		if p := s.TA.Nodes[n].Parent; p != octree.NoChild {
			par = out[4*p : 4*p+4]
		}
		s.pushTotal(int32(n), par, sNode, out[4*n:4*n+4])
	}
}

// BuildBornDriverSlack runs the single-driver APPROX-INTEGRALS traversal
// for the q-leaf node qLeaf, classifying against the caller's driver ball
// (ballC, ballR) — typically the refit ball of the leaf's CURRENT points —
// with both sides' radii inflated by SlackMargin. Inflation only moves
// pairs from far to near (near is exact), so accuracy is never worse than
// the plain criterion's, and any drift within the margins keeps every far
// decision valid. Visit order is that of StreamBornLeaves' traversal, so
// near entries come out in the canonical (ascending) order the session's
// row resums rely on.
func (s *BornSolver) BuildBornDriverSlack(l *InteractionList, qLeaf int32, ballC geom.Vec3, ballR float64) *InteractionList {
	l.reset()
	if len(s.TA.Nodes) == 0 {
		return l
	}
	qlo, qhi := s.TQ.PointRange(qLeaf)
	qCount := int64(qhi - qlo)
	rq := ballR + SlackMargin(ballR)
	stack := &l.stack // the list's own stack: no allocation once it has grown
	stack.push(0, qLeaf)
	for len(*stack) > 0 {
		p := stack.pop()
		a := p.A
		l.stats.NodesVisited++
		an := &s.TA.Nodes[a]
		d2 := an.Center.Dist2(ballC)
		ra := an.Radius + SlackMargin(an.Radius)
		if wellSeparated2(d2, ra, rq, s.sepK2) {
			l.Far = append(l.Far, NodePair{a, qLeaf})
			l.stats.FarEval++
			continue
		}
		if an.Leaf {
			l.Near = append(l.Near, NodePair{a, qLeaf})
			l.stats.NearPairs += int64(an.Count) * qCount
			continue
		}
		for c := 7; c >= 0; c-- {
			if ch := an.Children[c]; ch != octree.NoChild {
				stack.push(ch, qLeaf)
			}
		}
	}
	return l
}

// SetPointMirrors overwrites atom i's position in the energy solver's OWN
// storage mirror, the vector row table. The shared octree itself is patched
// once via BornSolver.SetAtomPoint — the two solvers share the atoms tree —
// so this covers exactly the mirror that tree patch cannot reach.
func (s *EpolSolver) SetPointMirrors(i int32, p geom.Vec3) {
	s.uPos[4*i], s.uPos[4*i+1], s.uPos[4*i+2] = p.X, p.Y, p.Z
}

// SetRadius overwrites atom i's Born radius (tree order), keeping invR and
// the vector row table coherent. The charge-by-radius BINS and their
// moments are deliberately left at their epoch values, as are the
// positions the moments were taken at: bins are a coarse geometric
// aggregation (ratio 1+ε), and rebinning or re-taking moments mid-epoch
// would make far-field values depend on update history; the session
// rebuilds the solver — fresh bins and moments about the refitted centres
// included — at every structural refresh instead.
func (s *EpolSolver) SetRadius(i int32, r float64) {
	s.R[i] = r
	s.invR[i] = 1 / r
	s.uQRG[4*i+1], s.uQRG[4*i+2] = r, -0.25*s.invR[i]
}

// BuildEpolDriverSlack runs the single-driver APPROX-EPOL traversal for
// the atoms-octree leaf node vLeaf against the caller's driver ball, with
// slack-inflated radii on both sides — the energy-phase counterpart of
// BuildBornDriverSlack. Leaf u-nodes go to the near list unconditionally
// (matching buildEpolLeafList), so inflation again only trades far entries
// for exact near ones.
func (s *EpolSolver) BuildEpolDriverSlack(l *InteractionList, vLeaf int32, ballC geom.Vec3, ballR float64) *InteractionList {
	l.reset()
	if len(s.T.Nodes) == 0 {
		return l
	}
	vCount := int64(s.T.Nodes[vLeaf].Count)
	rv := ballR + SlackMargin(ballR)
	stack := &l.stack
	stack.push(0, vLeaf)
	for len(*stack) > 0 {
		p := stack.pop()
		u := p.A
		l.stats.NodesVisited++
		un := &s.T.Nodes[u]
		if un.Leaf {
			l.Near = append(l.Near, NodePair{u, vLeaf})
			l.stats.NearPairs += int64(un.Count) * vCount
			continue
		}
		d2 := un.Center.Dist2(ballC)
		ru := un.Radius + SlackMargin(un.Radius)
		if epolFar2(d2, ru, rv, s.sep2) {
			l.Far = append(l.Far, NodePair{u, vLeaf})
			l.stats.FarEval += s.nnz(u) * s.nnz(vLeaf)
			continue
		}
		for c := 7; c >= 0; c-- {
			if ch := un.Children[c]; ch != octree.NoChild {
				stack.push(ch, vLeaf)
			}
		}
	}
	return l
}
