package core

import (
	"octgb/internal/gb"
	"octgb/internal/octree"
)

// This file implements the ATOM-BASED-WORK-DIVISION variants (§IV-A): each
// rank owns a contiguous range of atoms (in tree order) rather than a range
// of leaves. A far-field acceptance can only be collected at a tree node
// when that node lies entirely inside the rank's atom range; nodes
// straddling a range boundary must fall back to per-atom approximation.
// Because different P produce different boundaries, the places where
// approximations are collected — and therefore the error — change with the
// number of processes, which is exactly the instability the paper reports
// for atom-based division (and the reason node-based division is preferred).

// AccumulateQLeafAtomRange runs APPROX-INTEGRALS(root(T_A), Q) — the
// recursion of Fig. 2 — for the q-leaf with index qLeaf, restricted to
// atoms with tree-order index in [lo, hi).
func (s *BornSolver) AccumulateQLeafAtomRange(qLeaf int, lo, hi int32, sNode, sAtom []float64) Stats {
	var st Stats
	qn := s.TQ.LeafIdx[qLeaf]
	s.approxIntegralsRange(0, qn, lo, hi, sNode, sAtom, &st)
	return st
}

func (s *BornSolver) approxIntegralsRange(a, q, lo, hi int32, sNode, sAtom []float64, st *Stats) {
	an := &s.TA.Nodes[a]
	if an.Start+an.Count <= lo || an.Start >= hi {
		return // disjoint from this rank's atoms
	}
	st.NodesVisited++
	qn := &s.TQ.Nodes[q]
	d2 := an.Center.Dist2(qn.Center)
	if wellSeparated2(d2, an.Radius, qn.Radius, s.sepK2) {
		if an.Start >= lo && an.Start+an.Count <= hi {
			// Node fully owned: collect at the node as usual.
			s.AddBornFarTerm(a, q, sNode)
			st.FarEval++
			return
		}
		// Straddling node: approximate per owned atom against Q's far
		// term. The approximation point differs from the node center, so
		// the result (and error) depends on the boundary.
		from, to := clampRange(an.Start, an.Start+an.Count, lo, hi)
		for i := from; i < to; i++ {
			v, _, _, _ := s.farTerm(q, s.TQ.CX[q]-s.TA.X[i], s.TQ.CY[q]-s.TA.Y[i], s.TQ.CZ[q]-s.TA.Z[i])
			sAtom[i] += v
			st.FarEval++
		}
		return
	}
	if an.Leaf {
		from, to := clampRange(an.Start, an.Start+an.Count, lo, hi)
		qlo, qhi := s.TQ.PointRange(q)
		for i := from; i < to; i++ {
			p := s.TA.Points[i]
			var acc float64
			for j := qlo; j < qhi; j++ {
				dv := s.TQ.Points[j].Sub(p)
				d2 := dv.Norm2()
				if d2 < 1e-12 {
					continue
				}
				acc += s.wn(j).Dot(dv) * s.kernel(d2)
			}
			sAtom[i] += acc
		}
		st.NearPairs += int64(to-from) * int64(qhi-qlo)
		return
	}
	for _, ch := range an.Children {
		if ch != octree.NoChild {
			s.approxIntegralsRange(ch, q, lo, hi, sNode, sAtom, st)
		}
	}
}

func clampRange(start, end, lo, hi int32) (int32, int32) {
	if start < lo {
		start = lo
	}
	if end > hi {
		end = hi
	}
	return start, end
}

// LeafEnergyRows runs APPROX-EPOL(root, V) — the recursion of Fig. 3 —
// for the atoms-octree leaf with index vLeaf, with the leaf-side (row)
// atoms restricted to tree-order range [lo, hi): the rank owns atom rows
// rather than whole leaves. The far-field term is linear in the row charges, so summing the
// row-restricted results over all ranks reproduces the full sum; only the
// work distribution changes.
func (s *EpolSolver) LeafEnergyRows(vLeaf int, lo, hi int32) (float64, Stats) {
	var st Stats
	v := s.T.LeafIdx[vLeaf]
	vn := &s.T.Nodes[v]
	from, to := clampRange(vn.Start, vn.Start+vn.Count, lo, hi)
	if from >= to {
		return 0, st
	}
	var buf [64]int32
	e := s.epolVisitRows(0, v, s.ancestors(v, buf[:0]), from, to, &st)
	return e, st
}

func (s *EpolSolver) epolVisitRows(u, v int32, vAnc []int32, from, to int32, st *Stats) float64 {
	st.NodesVisited++
	un := &s.T.Nodes[u]
	vn := &s.T.Nodes[v]
	if un.Leaf {
		// A mutual block is owned leaf by leaf (blockWeight); the ranks that
		// share the owner's rows share the block.
		w := s.blockWeight(u, v, vAnc)
		if w == 0 {
			return 0
		}
		ulo, uhi := s.T.PointRange(u)
		var sum float64
		for i := ulo; i < uhi; i++ {
			pi, qi, ri := s.T.Points[i], s.q[i], s.R[i]
			for j := from; j < to; j++ {
				if i == j {
					sum += qi * qi / ri
					continue
				}
				sum += gb.PairTerm(qi, s.q[j], pi.Dist2(s.T.Points[j]), ri, s.R[j])
			}
		}
		st.NearPairs += int64(uhi-ulo) * int64(to-from)
		return float64(w) * sum
	}
	d2 := un.Center.Dist2(vn.Center)
	if epolFar2(d2, un.Radius, vn.Radius, s.sep2) {
		return s.binApproxRows(u, v, from, to, st)
	}
	var sum float64
	for _, ch := range un.Children {
		if ch != octree.NoChild {
			sum += s.epolVisitRows(ch, v, vAnc, from, to, st)
		}
	}
	return sum
}

// binApproxRows is the far-field bin-pair approximation of Fig. 3 step 2
// with the V-side bin moments built from only the owned rows [from, to) of
// the leaf v, about v's centre.
func (s *EpolSolver) binApproxRows(u, v int32, from, to int32, st *Stats) float64 {
	// u's bins, then the owned rows' partial bins, side by side.
	m := binMoments{start: []int32{0}}
	m.appendGroup(&s.nz, u)
	m.appendMoments(s, make([]float64, momentFloats*s.M), from, to, v)
	st.FarEval += int64(m.start[1]) * int64(m.start[2]-m.start[1])
	return s.farPair(u, v, &m, 0, 1)
}
