package core

import (
	"slices"

	"octgb/internal/octree"
)

// This file provides frontier decompositions of the dual-tree traversals:
// a breadth-first expansion of the recursion into independent (node, node)
// pairs that a work-stealing pool can execute in parallel — the nested
// parallelism the paper gets from cilk++'s spawn on the recursive calls.

// DualFrontier expands the Born dual-tree recursion level by level, every
// expandable pair replaced in place by its children, until at least
// minPairs independent pairs exist (or the recursion bottoms out). The
// pairs stay in the recursion's visit order, so completing them in
// sequence (StreamBornDual) adds every term in the order the whole
// traversal does; the second result counts the recursion steps the
// expansion took on the pairs' behalf.
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

// EpolDualFrontier expands the energy dual traversal (BuildEpolDualList)
// level by level, every pair that splits replaced in place by its
// children, until at least minPairs independent pairs exist (or the
// traversal bottoms out). Self pairs have A == B. The pairs stay in visit
// order, so completing them in sequence (BuildDualList) visits what the
// whole traversal visits, in its order; the second result counts the
// visits the expansion made on the pairs' behalf.
func (s *EpolSolver) EpolDualFrontier(minPairs int) ([]NodePair, Stats) {
	var st Stats
	if len(s.T.Nodes) == 0 {
		return nil, st
	}
	front := []NodePair{{0, 0}}
	for expanded := true; expanded && len(front) < minPairs; {
		expanded = false
		next := make([]NodePair, 0, 2*len(front))
		for _, p := range front {
			if s.epolKind(p) != epolSplit {
				next = append(next, p) // terminal; cannot expand
				continue
			}
			expanded = true
			st.NodesVisited++
			mark := len(next)
			next = s.epolChildren(p, next)
			slices.Reverse(next[mark:])
		}
		front = next
	}
	return front, st
}
