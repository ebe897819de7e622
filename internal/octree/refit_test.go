package octree

import (
	"math/rand"
	"testing"

	"octgb/internal/geom"
)

// Jittered points break the enclosing-ball invariant; RefitAll must restore
// it (Validate checks balls, boxes-by-convention and the center mirrors).
func TestRefitAllRestoresInvariants(t *testing.T) {
	tr := Build(randomPoints(500, 1), 8)
	rng := rand.New(rand.NewSource(2))
	for i := range tr.Points {
		if rng.Float64() < 0.3 {
			d := geom.V(rng.Float64()-0.5, rng.Float64()-0.5, rng.Float64()-0.5).Scale(3)
			tr.SetPoint(int32(i), tr.Points[i].Add(d))
		}
	}
	tr.RefitAll()
	if err := tr.Validate(); err != nil {
		t.Fatalf("refit tree invalid: %v", err)
	}
}

// A refit with unmoved points must reproduce the build-time geometry
// exactly: computeGeometry and RefitAll run the same arithmetic.
func TestRefitAllIdempotentOnUnmovedPoints(t *testing.T) {
	tr := Build(randomPoints(300, 3), 0)
	centers := make([]geom.Vec3, len(tr.Nodes))
	radii := make([]float64, len(tr.Nodes))
	for i := range tr.Nodes {
		centers[i], radii[i] = tr.Nodes[i].Center, tr.Nodes[i].Radius
	}
	tr.RefitAll()
	for i := range tr.Nodes {
		if tr.Nodes[i].Center != centers[i] || tr.Nodes[i].Radius != radii[i] {
			t.Fatalf("node %d geometry changed under no-op refit: %v/%g -> %v/%g",
				i, centers[i], radii[i], tr.Nodes[i].Center, tr.Nodes[i].Radius)
		}
	}
}

func TestPointLeavesCoversEveryPointOnce(t *testing.T) {
	tr := Build(randomPoints(257, 5), 7)
	leaves := tr.PointLeaves(nil)
	if len(leaves) != len(tr.Points) {
		t.Fatalf("PointLeaves length %d, want %d", len(leaves), len(tr.Points))
	}
	for i, l := range leaves {
		nd := &tr.Nodes[l]
		if !nd.Leaf {
			t.Fatalf("point %d mapped to non-leaf node %d", i, l)
		}
		if int32(i) < nd.Start || int32(i) >= nd.Start+nd.Count {
			t.Fatalf("point %d outside its leaf range [%d,%d)", i, nd.Start, nd.Start+nd.Count)
		}
	}
	inv := tr.InvPerm()
	for orig, ti := range inv {
		if tr.Perm[ti] != int32(orig) {
			t.Fatalf("InvPerm broken at %d", orig)
		}
	}
}

// subtreeEnd derives the skip index the slow way: one past the last node
// the recursion below n reaches.
func subtreeEnd(t *Tree, n int32) int32 {
	end := n + 1
	for _, ch := range t.Nodes[n].Children {
		if ch != NoChild {
			end = subtreeEnd(t, ch)
		}
	}
	return end
}

// TestSkipAndRadiusMirrorsFollowEveryWriter: the stackless traversals read
// Skip, CX/CY/CZ and CR instead of the Node records, so the mirrors must
// equal the Node fields after everything that writes node geometry — Build,
// RefitAll, Transform, and TransformInto into fresh, larger and smaller
// reused storage — and Skip must be the recursion's subtree end throughout.
func TestSkipAndRadiusMirrorsFollowEveryWriter(t *testing.T) {
	check := func(label string, tr *Tree) {
		t.Helper()
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for n := range tr.Nodes {
			nd := &tr.Nodes[n]
			if tr.CR[n] != nd.Radius || tr.CX[n] != nd.Center.X || tr.CY[n] != nd.Center.Y || tr.CZ[n] != nd.Center.Z {
				t.Fatalf("%s: node %d mirrors (%g %g %g r %g), Node %v r %g", label, n, tr.CX[n], tr.CY[n], tr.CZ[n], tr.CR[n], nd.Center, nd.Radius)
			}
			if want := subtreeEnd(tr, int32(n)); tr.Skip[n] != want {
				t.Fatalf("%s: Skip[%d] = %d, subtree ends at %d", label, n, tr.Skip[n], want)
			}
			if nd.Leaf != (tr.Skip[n] == int32(n)+1) {
				t.Fatalf("%s: node %d leaf=%v but Skip %d", label, n, nd.Leaf, tr.Skip[n])
			}
		}
	}
	big := Build(randomPoints(700, 5), 0)
	small := Build(randomPoints(90, 6), 4)
	check("build", big)
	check("build small", small)

	rng := rand.New(rand.NewSource(7))
	for i := range big.Points {
		d := geom.V(rng.Float64()-0.5, rng.Float64()-0.5, rng.Float64()-0.5).Scale(2)
		big.SetPoint(int32(i), big.Points[i].Add(d))
	}
	if big.CR[0] != big.Nodes[0].Radius {
		t.Fatal("SetPoint moved node geometry")
	}
	big.RefitAll()
	check("refit", big)

	m := geom.RotationAxisAngle(geom.V(1, 2, 0), 1.1).Compose(geom.Translation(geom.V(-4, 9, 2)))
	check("transform", big.Transform(m))
	dst := small.TransformInto(nil, m)
	check("transform into fresh", dst)
	dst = big.TransformInto(dst, m) // grows
	check("transform into smaller storage", dst)
	dst = small.TransformInto(dst, m) // shrinks
	check("transform into larger storage", dst)
	if len(dst.Skip) != len(small.Nodes) || &dst.Skip[0] != &small.Skip[0] {
		t.Error("TransformInto did not share the base tree's skip index")
	}
}
