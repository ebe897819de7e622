package octree

import "octgb/internal/geom"

// ForEachInBall calls fn(i) for the tree-order index i of every point whose
// distance to center is at most r. Traversal prunes nodes whose enclosing
// ball (Center, Radius) cannot intersect the query ball. fn may return
// false to stop early; ForEachInBall reports whether the scan ran to
// completion.
func (t *Tree) ForEachInBall(center geom.Vec3, r float64, fn func(i int32) bool) bool {
	if len(t.Nodes) == 0 {
		return true
	}
	return t.ballVisit(0, center, r, r*r, fn)
}

func (t *Tree) ballVisit(n int32, c geom.Vec3, r, r2 float64, fn func(i int32) bool) bool {
	nd := &t.Nodes[n]
	d := nd.Center.Dist(c)
	if d > nd.Radius+r {
		return true // disjoint
	}
	if nd.Leaf || d+nd.Radius <= r {
		// Leaf, or node fully inside the query ball: still test points
		// individually in the leaf case; in the fully-inside case all match.
		if d+nd.Radius <= r {
			for i := nd.Start; i < nd.Start+nd.Count; i++ {
				if !fn(i) {
					return false
				}
			}
			return true
		}
		for i := nd.Start; i < nd.Start+nd.Count; i++ {
			if t.Points[i].Dist2(c) <= r2 {
				if !fn(i) {
					return false
				}
			}
		}
		return true
	}
	for _, ch := range nd.Children {
		if ch == NoChild {
			continue
		}
		if !t.ballVisit(ch, c, r, r2, fn) {
			return false
		}
	}
	return true
}
