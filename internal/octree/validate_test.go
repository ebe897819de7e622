package octree

import (
	"fmt"

	"octgb/internal/geom"
)

// The structural checks and shape queries below serve the tests only.

// Depth returns the depth of node n (root = 0).
func (t *Tree) Depth(n int32) int {
	d := 0
	for t.Nodes[n].Parent != NoChild {
		n = t.Nodes[n].Parent
		d++
	}
	return d
}

// Height returns the height of the tree (leaf depth maximum).
func (t *Tree) Height() int {
	h := 0
	for _, l := range t.LeafIdx {
		if d := t.Depth(l); d > h {
			h = d
		}
	}
	return h
}

// CountInBall returns the number of points within distance r of center.
func (t *Tree) CountInBall(center geom.Vec3, r float64) int {
	n := 0
	t.ForEachInBall(center, r, func(int32) bool { n++; return true })
	return n
}

// Validate checks the structural invariants of the tree and returns the
// first violation: contiguous child ranges covering the parent, points
// inside node boxes (pre-transform), enclosing-ball property, and a
// permutation that is a bijection.
func (t *Tree) Validate() error {
	if len(t.Points) == 0 {
		if len(t.Nodes) != 0 {
			return fmt.Errorf("empty tree has %d nodes", len(t.Nodes))
		}
		return nil
	}
	if len(t.X) != len(t.Points) || len(t.Y) != len(t.Points) || len(t.Z) != len(t.Points) {
		return fmt.Errorf("SoA mirror lengths (%d,%d,%d) != %d points", len(t.X), len(t.Y), len(t.Z), len(t.Points))
	}
	for i, p := range t.Points {
		if t.X[i] != p.X || t.Y[i] != p.Y || t.Z[i] != p.Z {
			return fmt.Errorf("SoA mirror diverges from Points at %d", i)
		}
	}
	if n := len(t.Nodes); len(t.CX) != n || len(t.CY) != n || len(t.CZ) != n || len(t.CR) != n || len(t.Skip) != n {
		return fmt.Errorf("node mirror lengths (%d,%d,%d,%d; skip %d) != %d nodes", len(t.CX), len(t.CY), len(t.CZ), len(t.CR), len(t.Skip), n)
	}
	for i := range t.Nodes {
		nd := &t.Nodes[i]
		if c := nd.Center; t.CX[i] != c.X || t.CY[i] != c.Y || t.CZ[i] != c.Z || t.CR[i] != nd.Radius {
			return fmt.Errorf("node-geometry mirror diverges at node %d", i)
		}
		// Pre-order: a node's subtree is the index range [i, Skip[i]) — its
		// children's subtrees back to back — and only a leaf's is itself.
		next := int32(i) + 1
		for _, ch := range nd.Children {
			if ch != NoChild {
				if ch != next {
					return fmt.Errorf("node %d: child %d breaks the pre-order layout, want %d", i, ch, next)
				}
				next = t.Skip[ch]
			}
		}
		if t.Skip[i] != next || nd.Leaf != (next == int32(i)+1) {
			return fmt.Errorf("node %d: skip index %d, subtree ends at %d (leaf=%v)", i, t.Skip[i], next, nd.Leaf)
		}
	}
	seen := make([]bool, len(t.Perm))
	for _, p := range t.Perm {
		if p < 0 || int(p) >= len(t.Perm) || seen[p] {
			return fmt.Errorf("perm is not a bijection at %d", p)
		}
		seen[p] = true
	}
	for i := range t.Nodes {
		nd := &t.Nodes[i]
		if nd.Start < 0 || nd.Start+nd.Count > int32(len(t.Points)) {
			return fmt.Errorf("node %d range [%d,%d) out of bounds", i, nd.Start, nd.Start+nd.Count)
		}
		for j := nd.Start; j < nd.Start+nd.Count; j++ {
			if d := t.Points[j].Dist(nd.Center); d > nd.Radius*(1+1e-12)+1e-12 {
				return fmt.Errorf("node %d: point %d outside enclosing ball (%g > %g)", i, j, d, nd.Radius)
			}
		}
		if nd.Leaf {
			continue
		}
		// Children must tile the parent's range in order.
		at := nd.Start
		total := int32(0)
		for _, ch := range nd.Children {
			if ch == NoChild {
				continue
			}
			c := &t.Nodes[ch]
			if c.Start != at {
				return fmt.Errorf("node %d: child %d starts at %d, want %d", i, ch, c.Start, at)
			}
			if c.Parent != int32(i) {
				return fmt.Errorf("node %d: child %d has parent %d", i, ch, c.Parent)
			}
			at += c.Count
			total += c.Count
		}
		if total != nd.Count {
			return fmt.Errorf("node %d: children cover %d of %d points", i, total, nd.Count)
		}
	}
	return nil
}
