package octree

import (
	"math"

	"octgb/internal/geom"
)

// This file holds the in-place maintenance operations behind incremental
// (streaming) evaluation: points move a little each frame, so instead of
// rebuilding the tree the caller patches the moved points (SetPoint) and,
// when accumulated drift warrants it, refits every node's bounding geometry
// to the current points (RefitAll). The tree TOPOLOGY — node ranges,
// children, Perm, leaf set, Skip — is frozen: a refit changes only Center,
// Radius, Box and the CX/CY/CZ/CR mirrors. Leaf membership therefore
// reflects the build-time positions; for bounded drift that only loosens
// the enclosing balls slightly (the session layer bounds it with slack
// margins and builds a fresh tree — a new Session — when a trajectory walks
// far from home).

// SetPoint overwrites point i (tree order) in place, keeping the X/Y/Z SoA
// mirrors coherent. Node geometry is NOT updated — the enclosing-ball
// invariant is restored by the next RefitAll; until then callers must
// account for the displacement themselves (the slack margins of
// engine.Session).
func (t *Tree) SetPoint(i int32, p geom.Vec3) {
	t.Points[i] = p
	t.X[i], t.Y[i], t.Z[i] = p.X, p.Y, p.Z
}

// RefitAll recomputes every node's Center (centroid of the points under it)
// and Radius (enclosing ball about that centroid) from the CURRENT points,
// in place, and refreshes the CX/CY/CZ/CR mirrors. Box is reset to
// center ± radius, the same advisory form Transform leaves behind. The
// result is geometrically identical to what computeGeometry produces at
// build time for these positions — only the topology (ranges, Perm) still
// reflects the original build — so Validate passes on a refit tree.
func (t *Tree) RefitAll() {
	for n := range t.Nodes {
		nd := &t.Nodes[n]
		var c geom.Vec3
		for i := nd.Start; i < nd.Start+nd.Count; i++ {
			c = c.Add(t.Points[i])
		}
		if nd.Count > 0 {
			c = c.Scale(1 / float64(nd.Count))
		}
		nd.Center = c
		var r2 float64
		for i := nd.Start; i < nd.Start+nd.Count; i++ {
			if d := t.Points[i].Dist2(c); d > r2 {
				r2 = d
			}
		}
		nd.Radius = math.Sqrt(r2)
		r := geom.V(nd.Radius, nd.Radius, nd.Radius)
		nd.Box = geom.AABB{Min: nd.Center.Sub(r), Max: nd.Center.Add(r)}
		t.CX[n], t.CY[n], t.CZ[n], t.CR[n] = c.X, c.Y, c.Z, nd.Radius
	}
}

// TransformInto is Transform writing into dst, reusing dst's backing
// storage when it is large enough — the per-pose fast path of a docking
// sweep, where the same base tree is placed at thousands of poses and a
// fresh allocation per pose would dominate. dst may be nil (a new tree is
// allocated) or a tree previously produced by TransformInto from any base.
// Perm, LeafIdx and Skip are shared with the receiver.
func (t *Tree) TransformInto(dst *Tree, m geom.Rigid) *Tree {
	if dst == nil {
		dst = new(Tree)
	}
	dst.Perm = t.Perm
	dst.LeafIdx = t.LeafIdx
	dst.Skip = t.Skip
	dst.LeafSize = t.LeafSize
	dst.Nodes = append(dst.Nodes[:0], t.Nodes...)
	np := len(t.Points)
	dst.Points = grow(dst.Points, np)
	dst.X, dst.Y, dst.Z = grow(dst.X, np), grow(dst.Y, np), grow(dst.Z, np)
	for i, p := range t.Points {
		q := m.Apply(p)
		dst.Points[i] = q
		dst.X[i], dst.Y[i], dst.Z[i] = q.X, q.Y, q.Z
	}
	nn := len(t.Nodes)
	dst.CX, dst.CY, dst.CZ, dst.CR = grow(dst.CX, nn), grow(dst.CY, nn), grow(dst.CZ, nn), grow(dst.CR, nn)
	for i := range dst.Nodes {
		nd := &dst.Nodes[i]
		nd.Center = m.Apply(nd.Center)
		r := geom.V(nd.Radius, nd.Radius, nd.Radius)
		nd.Box = geom.AABB{Min: nd.Center.Sub(r), Max: nd.Center.Add(r)}
		dst.CX[i], dst.CY[i], dst.CZ[i], dst.CR[i] = nd.Center.X, nd.Center.Y, nd.Center.Z, nd.Radius
	}
	return dst
}

// grow returns s resized to n elements, reusing its backing array when the
// capacity allows; a nil s always gets a new (possibly empty) array.
func grow[T any](s []T, n int) []T {
	if s != nil && cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// PointLeaves returns, for every point (tree order), the node index of the
// leaf that owns it — the lookup incremental callers need to map a moved
// point to its dirty leaf — in dst, grown when it is too short. O(points);
// call once and keep the slice (the topology, and therefore the mapping,
// never changes).
func (t *Tree) PointLeaves(dst []int32) []int32 {
	out := grow(dst, len(t.Points))
	for _, l := range t.LeafIdx {
		nd := &t.Nodes[l]
		for i := nd.Start; i < nd.Start+nd.Count; i++ {
			out[i] = l
		}
	}
	return out
}

// InvPerm returns the inverse of Perm: InvPerm()[orig] = tree-order index.
// Incremental callers use it to route original-order updates (a moved atom)
// to tree-order storage.
func (t *Tree) InvPerm() []int32 { return t.InvPermInto(nil) }

// InvPermInto is InvPerm written to dst, grown when it is too short.
func (t *Tree) InvPermInto(dst []int32) []int32 {
	out := grow(dst, len(t.Perm))
	for i, orig := range t.Perm {
		out[orig] = int32(i)
	}
	return out
}
