package core

import "slices"

// This file provides frontier decompositions of the dual-tree traversals:
// a breadth-first expansion of the recursion into independent (node, node)
// pairs that a work-stealing pool can execute in parallel — the nested
// parallelism the paper gets from cilk++'s spawn on the recursive calls.

// expandFrontier expands a dual traversal from the root pair level by
// level, every pair that splits replaced in place by its children, until
// at least minPairs independent pairs exist (or the traversal bottoms
// out). A level is expanded in visit order only as far as the target
// needs, so the count overshoots by less than one pair's children.
// children appends p's children in a stack's push order (reverse visit
// order), none when p does not split; the second result counts splits.
func expandFrontier(minPairs int, children func(p NodePair, dst []NodePair) []NodePair) ([]NodePair, Stats) {
	var st Stats
	front := []NodePair{{0, 0}}
	for expanded := true; expanded && len(front) < minPairs; {
		expanded = false
		next := make([]NodePair, 0, 2*len(front))
		for i, p := range front {
			if len(next)+len(front)-i >= minPairs {
				next = append(next, front[i:]...)
				break
			}
			mark := len(next)
			if next = children(p, next); len(next) == mark {
				next = append(next, p) // terminal; cannot expand
				continue
			}
			slices.Reverse(next[mark:])
			expanded = true
			st.NodesVisited++
		}
		front = next
	}
	return front, st
}

// DualFrontier is the Born dual traversal's frontier: completing its pairs
// in sequence (StreamBornDual) adds every term in the order the whole
// traversal does, and the splits count as its visits.
func (s *BornSolver) DualFrontier(minPairs int) ([]NodePair, Stats) {
	if len(s.TA.Nodes) == 0 || len(s.TQ.Nodes) == 0 {
		return nil, Stats{}
	}
	return expandFrontier(minPairs, func(p NodePair, dst []NodePair) []NodePair {
		an, qn := &s.TA.Nodes[p.A], &s.TQ.Nodes[p.B]
		if wellSeparated2(an.Center.Dist2(qn.Center), an.Radius, qn.Radius, s.sepK2) || (an.Leaf && qn.Leaf) {
			return dst
		}
		return s.bornChildren(p, dst)
	})
}

// EpolDualFrontier is the energy dual traversal's frontier (self pairs
// have A == B): completing its pairs in sequence (BuildDualList) visits
// what BuildEpolDualList visits, in its order, the splits included.
func (s *EpolSolver) EpolDualFrontier(minPairs int) ([]NodePair, Stats) {
	if len(s.T.Nodes) == 0 {
		return nil, Stats{}
	}
	return expandFrontier(minPairs, func(p NodePair, dst []NodePair) []NodePair {
		if s.epolKind(p) != epolSplit {
			return dst
		}
		return s.epolChildren(p, dst)
	})
}
