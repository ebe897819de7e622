package core

import "octgb/internal/octree"

// This file provides frontier decompositions of the dual-tree traversals:
// a breadth-first expansion of the recursion into independent (node, node)
// pairs that a work-stealing pool can execute in parallel — the nested
// parallelism the paper gets from cilk++'s spawn on the recursive calls.

// DualFrontier expands the Born dual-tree recursion level by level, every
// expandable pair replaced in place by its children, until at least
// minPairs independent pairs exist (or the recursion bottoms out). The
// pairs stay in the recursion's visit order, so completing them in
// sequence (AccumulateDualPair, StreamBornDual) adds every term in the
// order AccumulateDual does; the second result counts the recursion steps
// the expansion took on the pairs' behalf.
func (s *BornSolver) DualFrontier(minPairs int) ([]NodePair, Stats) {
	var st Stats
	if len(s.TA.Nodes) == 0 || len(s.TQ.Nodes) == 0 {
		return nil, st
	}
	front := []NodePair{{0, 0}}
	for expanded := true; expanded && len(front) < minPairs; {
		expanded = false
		next := make([]NodePair, 0, 2*len(front))
		for _, pr := range front {
			an, qn := &s.TA.Nodes[pr.A], &s.TQ.Nodes[pr.B]
			d2 := an.Center.Dist2(qn.Center)
			if wellSeparated2(d2, an.Radius, qn.Radius, s.sepK2) || (an.Leaf && qn.Leaf) {
				next = append(next, pr) // terminal; cannot expand
				continue
			}
			expanded = true
			st.NodesVisited++
			if qn.Leaf || (!an.Leaf && an.Radius >= qn.Radius) {
				for _, ch := range an.Children {
					if ch != octree.NoChild {
						next = append(next, NodePair{ch, pr.B})
					}
				}
			} else {
				for _, ch := range qn.Children {
					if ch != octree.NoChild {
						next = append(next, NodePair{pr.A, ch})
					}
				}
			}
		}
		front = next
	}
	return front, st
}

// AccumulateDualPair runs the dual-tree Born recursion from the given
// (atoms-node, q-node) pair.
func (s *BornSolver) AccumulateDualPair(a, q int32, sNode, sAtom []float64) Stats {
	var st Stats
	s.approxIntegralsDual(a, q, sNode, sAtom, &st)
	return st
}

// EpolDualFrontier expands the energy dual-tree recursion breadth-first
// into at least minPairs independent ordered pairs.
func (s *EpolSolver) EpolDualFrontier(minPairs int) [][2]int32 {
	if len(s.T.Nodes) == 0 {
		return nil
	}
	queue := [][2]int32{{0, 0}}
	for len(queue) < minPairs {
		expanded := false
		for i, pr := range queue {
			u, v := pr[0], pr[1]
			un, vn := &s.T.Nodes[u], &s.T.Nodes[v]
			d2 := un.Center.Dist2(vn.Center)
			if (u != v && epolFar2(d2, un.Radius, vn.Radius, s.sep2)) || (un.Leaf && vn.Leaf) {
				continue
			}
			queue = append(queue[:i], queue[i+1:]...)
			if vn.Leaf || (!un.Leaf && un.Radius >= vn.Radius) {
				for _, ch := range un.Children {
					if ch != octree.NoChild {
						queue = append(queue, [2]int32{ch, v})
					}
				}
			} else {
				for _, ch := range vn.Children {
					if ch != octree.NoChild {
						queue = append(queue, [2]int32{u, ch})
					}
				}
			}
			expanded = true
			break
		}
		if !expanded {
			break
		}
	}
	return queue
}

// EnergyDualPair runs the energy dual-tree recursion from one ordered
// node pair and returns the raw sum (scale by EnergyScale).
func (s *EpolSolver) EnergyDualPair(u, v int32) (float64, Stats) {
	var st Stats
	e := s.epolDual(u, v, &st)
	return e, st
}
