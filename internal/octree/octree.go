// Package octree implements the linearized, cache-friendly octree the paper
// uses in place of nonbonded lists. A tree is built once over a point set
// (atom centers or surface quadrature points) and then reused for any
// approximation parameter — unlike nblists, its size is independent of any
// cutoff (paper §II, "Octrees vs. Nblists").
//
// The build reorders the points so every node owns a contiguous range of a
// single flat array (Morton-style depth-first order). Treecode traversals
// therefore stream leaves sequentially, which is what makes the structure
// cache-friendly.
package octree

import (
	"math"
	"unsafe"

	"octgb/internal/geom"
)

// NoChild marks an absent child slot.
const NoChild = int32(-1)

// DefaultLeafSize is the default maximum number of points per leaf. The
// paper's shared-memory predecessor ([6]) uses small constant-size leaves;
// 16 balances traversal depth against exact-interaction cost.
const DefaultLeafSize = 16

// maxDepth bounds subdivision for degenerate inputs (coincident points).
const maxDepth = 48

// Node is one octree node. Points under the node occupy the contiguous
// range [Start, Start+Count) of the tree's reordered point array.
type Node struct {
	Box      geom.AABB // the node's cube
	Center   geom.Vec3 // geometric centroid of the points under the node
	Radius   float64   // radius of the ball centered at Center enclosing all points
	Start    int32     // first point index (tree order)
	Count    int32     // number of points under the node
	Children [8]int32  // child node indices, NoChild where absent
	Parent   int32     // parent node index, NoChild for the root
	Leaf     bool
}

// Tree is a linearized octree over a point set.
type Tree struct {
	Nodes    []Node
	Points   []geom.Vec3 // points in tree (depth-first) order
	Perm     []int32     // Perm[i] = original index of Points[i]
	LeafIdx  []int32     // node indices of leaves, in tree order
	LeafSize int

	// Skip is the pre-order skip index: Nodes lie in depth-first pre-order,
	// so the subtree of node n is the index range [n, Skip[n]) and a leaf
	// is Skip[n] == n+1; `for n < len { n = Skip[n] or n+1 }` visits what
	// the recursion visits, in its order, with no stack. Topology, like
	// Perm and LeafIdx: fixed at Build and shared by Transform.
	Skip []int32

	// X, Y, Z are structure-of-arrays mirrors of Points, maintained by
	// Build, Transform and FillSoA. The flat evaluation kernels
	// (internal/core's interaction lists) stream these instead of the
	// AoS Points so each inner loop touches three contiguous float64
	// streams.
	X, Y, Z []float64

	// CX, CY, CZ and CR mirror the node centers and radii the same way:
	// the acceptance tests and the far-field kernels read only those, and
	// streaming them avoids striding through the ~120-byte Node structs once
	// per visited node. FillSoA, RefitAll and TransformInto are the only
	// writers, each beside its write of Node.Center / Node.Radius.
	CX, CY, CZ, CR []float64

	oct []uint8 // Rebuild's scratch: each point's octant in the node being split
}

// FillSoA (re)derives the X/Y/Z coordinate mirrors from Points and the
// CX/CY/CZ/CR mirrors from the node centers and radii. Fresh slices are
// always allocated so that shallow Tree copies which replace Points (e.g.
// NaN-poisoned restricted solvers) never alias the source tree's mirrors.
func (t *Tree) FillSoA() {
	t.X, t.Y, t.Z = nil, nil, nil
	t.CX, t.CY, t.CZ, t.CR = nil, nil, nil, nil
	t.fillSoA()
}

// fillSoA is FillSoA writing into the mirrors' own storage — the build
// path's form, where the tree owns its mirrors and nothing aliases them.
func (t *Tree) fillSoA() {
	n := len(t.Points)
	t.X, t.Y, t.Z = grow(t.X, n), grow(t.Y, n), grow(t.Z, n)
	for i, p := range t.Points {
		t.X[i], t.Y[i], t.Z[i] = p.X, p.Y, p.Z
	}
	m := len(t.Nodes)
	t.CX, t.CY, t.CZ, t.CR = grow(t.CX, m), grow(t.CY, m), grow(t.CZ, m), grow(t.CR, m)
	for i := range t.Nodes {
		c := t.Nodes[i].Center
		t.CX[i], t.CY[i], t.CZ[i], t.CR[i] = c.X, c.Y, c.Z, t.Nodes[i].Radius
	}
}

// Build constructs an octree over pts with the given maximum leaf size
// (≤0 selects DefaultLeafSize). The input slice is not modified.
func Build(pts []geom.Vec3, leafSize int) *Tree {
	return BuildOwned(append([]geom.Vec3(nil), pts...), leafSize)
}

// BuildOwned is Build taking ownership of pts: the slice becomes the
// tree's Points and is reordered in place, which spares callers that
// extracted the positions for this build a second copy of them. A tree
// built once keeps no build scratch.
func BuildOwned(pts []geom.Vec3, leafSize int) *Tree {
	t := new(Tree).Rebuild(pts, leafSize)
	t.oct = nil
	return t
}

// Rebuild builds the tree over pts in place of what it held: pts becomes
// Points as in BuildOwned, and Perm, Nodes, LeafIdx, Skip, the SoA mirrors
// and the build scratch reuse the receiver's storage where its capacity
// allows. The result equals BuildOwned's on the same input. Anything that
// shares the old tree's storage — a Transform, a solver over it — must be
// done with it first. Rebuild returns the receiver.
func (t *Tree) Rebuild(pts []geom.Vec3, leafSize int) *Tree {
	if leafSize <= 0 {
		leafSize = DefaultLeafSize
	}
	t.Points, t.LeafSize = pts, leafSize
	t.Perm = grow(t.Perm, len(pts))
	for i := range t.Perm {
		t.Perm[i] = int32(i)
	}
	t.Nodes, t.LeafIdx, t.Skip = t.Nodes[:0], t.LeafIdx[:0], t.Skip[:0]
	if len(pts) == 0 {
		t.fillSoA()
		return t
	}
	root := geom.NewAABB(pts...).Cube()
	// Inflate degenerate root boxes so OctantIndex is well-defined.
	if root.Size().MaxComponent() == 0 {
		root = geom.AABB{
			Min: root.Min.Sub(geom.V(0.5, 0.5, 0.5)),
			Max: root.Max.Add(geom.V(0.5, 0.5, 0.5)),
		}
	}
	if est := 3*len(pts)/leafSize + 8; cap(t.Nodes) < est { // surface leaves fill to about a third
		t.Nodes = make([]Node, 0, est)
	}
	t.oct = grow(t.oct, len(pts))
	t.build(root, 0, int32(len(pts)), 0, NoChild)
	t.computeGeometry(0)
	for i := range t.Nodes {
		if t.Nodes[i].Leaf {
			t.LeafIdx = append(t.LeafIdx, int32(i))
		}
	}
	// A subtree ends where its last child's does; children follow their
	// parent in the layout, so one reverse sweep has them ready.
	t.Skip = grow(t.Skip, len(t.Nodes))
	for n := len(t.Nodes) - 1; n >= 0; n-- {
		t.Skip[n] = int32(n) + 1
		for c := 7; c >= 0; c-- {
			if ch := t.Nodes[n].Children[c]; ch != NoChild {
				t.Skip[n] = t.Skip[ch]
				break
			}
		}
	}
	t.fillSoA()
	return t
}

// build recursively subdivides [start, start+count) and returns the node
// index. Points are partitioned in place into octant buckets.
func (t *Tree) build(box geom.AABB, start, count int32, depth int, parent int32) int32 {
	idx := int32(len(t.Nodes))
	t.Nodes = append(t.Nodes, Node{
		Box:      box,
		Start:    start,
		Count:    count,
		Parent:   parent,
		Children: [8]int32{NoChild, NoChild, NoChild, NoChild, NoChild, NoChild, NoChild, NoChild},
	})
	if count <= int32(t.LeafSize) || depth >= maxDepth {
		t.Nodes[idx].Leaf = true
		return idx
	}

	// Classify every point once: the octant codes are kept beside the
	// points and travel with them through the bucket sort.
	c := box.Center()
	oct := t.oct[start : start+count]
	pts := t.Points[start : start+count][:len(oct)]
	perm := t.Perm[start : start+count][:len(oct)]
	var cnt [8]int32
	for i, p := range pts {
		var o uint8
		if p.X >= c.X {
			o |= 1
		}
		if p.Y >= c.Y {
			o |= 2
		}
		if p.Z >= c.Z {
			o |= 4
		}
		oct[i] = o
		cnt[o]++
	}
	// If all points land in one octant of a tiny box, give up (coincident).
	if box.Size().MaxComponent() < 1e-9 {
		t.Nodes[idx].Leaf = true
		return idx
	}

	// Prefix sums → bucket offsets (relative to start).
	var off, next [8]int32
	for o := 1; o < 8; o++ {
		off[o] = off[o-1] + cnt[o-1]
	}
	next = off

	// In-place cycle sort into buckets.
	for o := uint8(0); o < 8; o++ {
		end := off[o] + cnt[o]
		for i := next[o]; i < end; {
			dst := oct[i]
			if dst == o {
				i++
				continue
			}
			j := next[dst]
			pts[i], pts[j] = pts[j], pts[i]
			perm[i], perm[j] = perm[j], perm[i]
			oct[i], oct[j] = oct[j], dst
			next[dst]++
		}
	}

	// Recurse into non-empty octants in order (gives Morton layout).
	for o := 0; o < 8; o++ {
		if cnt[o] == 0 {
			continue
		}
		child := t.build(box.Octant(o), start+off[o], cnt[o], depth+1, idx)
		t.Nodes[idx].Children[o] = child
	}
	return idx
}

// computeGeometry fills Center (centroid) and Radius (enclosing ball about
// the centroid) bottom-up for the subtree rooted at n.
func (t *Tree) computeGeometry(n int32) {
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
	for _, ch := range nd.Children {
		if ch != NoChild {
			t.computeGeometry(ch)
		}
	}
}

// Root returns the root node index (0) — valid only for non-empty trees.
func (t *Tree) Root() int32 { return 0 }

// NumLeaves returns the number of leaf nodes.
func (t *Tree) NumLeaves() int { return len(t.LeafIdx) }

// Leaves returns the leaf node indices in tree order.
func (t *Tree) Leaves() []int32 { return t.LeafIdx }

// PointRange returns the tree-order point index range [lo, hi) of node n.
func (t *Tree) PointRange(n int32) (lo, hi int32) {
	nd := &t.Nodes[n]
	return nd.Start, nd.Start + nd.Count
}

// MemoryBytes is the memory the tree's slices hold, in bytes; used by the
// serving cache's byte budget and by the replication-cost model (pure-MPI
// ranks each hold a full copy, the paper's §IV-B memory argument).
func (t *Tree) MemoryBytes() int64 {
	return int64(cap(t.Nodes))*int64(unsafe.Sizeof(Node{})) + int64(cap(t.oct)) +
		int64(cap(t.Points))*24 + int64(cap(t.Perm)+cap(t.LeafIdx)+cap(t.Skip))*4 +
		int64(cap(t.X)+cap(t.Y)+cap(t.Z)+cap(t.CX)+cap(t.CY)+cap(t.CZ)+cap(t.CR))*8
}

// Transform returns a copy of the tree with the rigid transform applied to
// every point, node center and node box. Radii are invariant under rigid
// motion, so the expensive build is not repeated — the paper's §IV-C
// docking-reuse observation.
func (t *Tree) Transform(m geom.Rigid) *Tree {
	return t.TransformInto(nil, m)
}
