package octree_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"octgb/internal/geom"
	"octgb/internal/molecule"
	"octgb/internal/octree"
	"octgb/internal/surface"
)

// buildOracle is the tree construction as it stood before Build classified
// each point once per level and took ownership of its input: bounds through
// math.Min/Max, the octant recomputed at every look, the same in-place
// cycle sort. Build must still produce this tree, node for node.
func buildOracle(pts []geom.Vec3, leafSize int) *octree.Tree {
	if leafSize <= 0 {
		leafSize = octree.DefaultLeafSize
	}
	t := &octree.Tree{Points: append([]geom.Vec3(nil), pts...), Perm: make([]int32, len(pts)), LeafSize: leafSize}
	for i := range t.Perm {
		t.Perm[i] = int32(i)
	}
	if len(pts) == 0 {
		t.FillSoA()
		return t
	}
	b := geom.EmptyAABB()
	for _, p := range pts {
		b = b.ExpandPoint(p)
	}
	root := b.Cube()
	if root.Size().MaxComponent() == 0 {
		root = geom.AABB{Min: root.Min.Sub(geom.V(0.5, 0.5, 0.5)), Max: root.Max.Add(geom.V(0.5, 0.5, 0.5))}
	}
	oracleSplit(t, root, 0, int32(len(pts)), 0, octree.NoChild)
	for i := range t.Nodes {
		nd := &t.Nodes[i]
		var c geom.Vec3
		for j := nd.Start; j < nd.Start+nd.Count; j++ {
			c = c.Add(t.Points[j])
		}
		c = c.Scale(1 / float64(nd.Count))
		var r2 float64
		for j := nd.Start; j < nd.Start+nd.Count; j++ {
			r2 = math.Max(r2, t.Points[j].Dist2(c))
		}
		nd.Center, nd.Radius = c, math.Sqrt(r2)
		if nd.Leaf {
			t.LeafIdx = append(t.LeafIdx, int32(i))
		}
	}
	t.FillSoA()
	return t
}

func oracleSplit(t *octree.Tree, box geom.AABB, start, count int32, depth int, parent int32) int32 {
	idx := int32(len(t.Nodes))
	none := octree.NoChild
	t.Nodes = append(t.Nodes, octree.Node{Box: box, Start: start, Count: count, Parent: parent,
		Children: [8]int32{none, none, none, none, none, none, none, none}})
	// The skip index the oracle's way: whatever the recursion appended
	// while it was below idx is idx's subtree.
	t.Skip = append(t.Skip, 0)
	defer func() { t.Skip[idx] = int32(len(t.Nodes)) }()
	if count <= int32(t.LeafSize) || depth >= 48 || box.Size().MaxComponent() < 1e-9 {
		t.Nodes[idx].Leaf = true
		return idx
	}
	var cnt, off, next [8]int32
	for i := start; i < start+count; i++ {
		cnt[box.OctantIndex(t.Points[i])]++
	}
	off[0] = start
	for o := 1; o < 8; o++ {
		off[o] = off[o-1] + cnt[o-1]
	}
	next = off
	for o := 0; o < 8; o++ {
		for i := next[o]; i < off[o]+cnt[o]; {
			dst := box.OctantIndex(t.Points[i])
			if dst == o {
				i++
				continue
			}
			j := next[dst]
			t.Points[i], t.Points[j] = t.Points[j], t.Points[i]
			t.Perm[i], t.Perm[j] = t.Perm[j], t.Perm[i]
			next[dst]++
		}
	}
	for o := 0; o < 8; o++ {
		if cnt[o] != 0 {
			t.Nodes[idx].Children[o] = oracleSplit(t, box.Octant(o), off[o], cnt[o], depth+1, idx)
		}
	}
	return idx
}

func TestBuildMatchesOracleNodeForNode(t *testing.T) {
	mol := molecule.GenerateProtein("tq", 4000, 21)
	atoms := make([]geom.Vec3, mol.N())
	for i := range atoms {
		atoms[i] = mol.Atoms[i].Pos
	}
	r := rand.New(rand.NewSource(4))
	clumped := make([]geom.Vec3, 500)
	for i := range clumped {
		clumped[i] = geom.V(float64(r.Intn(3)), float64(r.Intn(2)), 0) // heavy coincidence
	}
	for name, pts := range map[string][]geom.Vec3{
		"q-points":   surface.Positions(surface.Sample(mol, surface.Default())),
		"atoms":      atoms,
		"coincident": clumped,
		"one":        {geom.V(1, 2, 3)},
		"none":       nil,
	} {
		for _, leaf := range []int{0, 1, 5} {
			want := buildOracle(pts, leaf)
			input := append([]geom.Vec3(nil), pts...)
			got := octree.Build(input, leaf)
			if !reflect.DeepEqual(input, pts) {
				t.Errorf("%s: Build reordered its input", name)
			}
			owned := octree.BuildOwned(input, leaf)
			for which, tr := range map[string]*octree.Tree{"Build": got, "BuildOwned": owned} {
				if err := tr.Validate(); err != nil {
					t.Errorf("%s leaf=%d %s: %v", name, leaf, which, err)
				}
				if !reflect.DeepEqual(tr, want) {
					t.Errorf("%s leaf=%d: %s differs from the oracle tree (%d vs %d nodes)", name, leaf, which, len(tr.Nodes), len(want.Nodes))
				}
			}
			if len(pts) > 0 && &owned.Points[0] != &input[0] {
				t.Errorf("%s: BuildOwned copied its input", name)
			}
		}
	}
}
