package surface

import (
	"fmt"
	"math"
	"testing"

	"octgb/internal/geom"
	"octgb/internal/molecule"
	"octgb/internal/octree"
	"octgb/internal/quadrature"
)

// sampleOracle is the point-by-point sampler the package shipped before the
// neighbour-list one: every candidate point runs its own ball query of
// radius maxR on the atom octree. It is the reference the production
// sampler must reproduce bit for bit, in the same atom-major order.
func sampleOracle(mol *molecule.Molecule, opt Options) ([]QPoint, []int32) {
	opt = opt.withDefaults()
	n := mol.N()
	if n == 0 {
		return nil, nil
	}
	mesh := quadrature.Icosphere(opt.SubdivLevel)
	rule := quadrature.Rule(opt.Degree)
	areaFix := 4 * math.Pi / mesh.TotalArea()
	type protoPoint struct {
		dir geom.Vec3
		w   float64
	}
	var protos []protoPoint
	for i := range mesh.Tris {
		area := mesh.TriangleArea(i) * areaFix
		for _, p := range rule {
			protos = append(protos, protoPoint{dir: mesh.PointAt(i, p.A, p.B, p.C).Unit(), w: p.W * area})
		}
	}
	tree, maxR := centerTree(mol, opt.RadiusScale)
	var out []QPoint
	var owners []int32
	for i := range mol.Atoms {
		ai := &mol.Atoms[i]
		ri := ai.Radius * opt.RadiusScale
		for _, pp := range protos {
			p := ai.Pos.Add(pp.dir.Scale(ri))
			if buriedOracle(tree, mol, opt.RadiusScale, p, int32(i), maxR) {
				continue
			}
			out = append(out, QPoint{Pos: p, Normal: pp.dir, Weight: pp.w * ri * ri})
			owners = append(owners, int32(i))
		}
	}
	return out, owners
}

// buriedOracle reports whether point p (on atom self's sphere) lies strictly
// inside any other atom's sphere.
func buriedOracle(tree *octree.Tree, mol *molecule.Molecule, scale float64, p geom.Vec3, self int32, maxR float64) bool {
	hit := false
	tree.ForEachInBall(p, maxR, func(ti int32) bool {
		j := tree.Perm[ti]
		if j == self {
			return true
		}
		a := &mol.Atoms[j]
		r := a.Radius * scale
		if a.Pos.Dist2(p) < r*r*(1-1e-12) {
			hit = true
			return false
		}
		return true
	})
	return hit
}

func atomsOf(name string, atoms ...molecule.Atom) *molecule.Molecule {
	return &molecule.Molecule{Name: name, Atoms: atoms}
}

// TestSamplerMatchesOracle holds the neighbour-list sampler to the
// point-by-point one: bitwise-equal points, normals, weights and owners, in
// the same order, for every worker count.
func TestSamplerMatchesOracle(t *testing.T) {
	at := func(x, y, z, r float64) molecule.Atom { return molecule.Atom{Pos: geom.V(x, y, z), Radius: r} }
	// A slice of a capsid shell: the atoms of a hollow shell inside one slab.
	shell := molecule.GenerateCapsid("shell", 6000, 20, 5)
	slice := &molecule.Molecule{Name: "shell-slice"}
	for _, a := range shell.Atoms {
		if math.Abs(a.Pos.Z) < 8 {
			slice.Atoms = append(slice.Atoms, a)
		}
	}
	cases := []struct {
		mol *molecule.Molecule
		opt Options
	}{
		{molecule.GenerateProtein("p300", 300, 11), Default()},
		{molecule.GenerateProtein("p2000", 2000, 12), Default()},
		{molecule.GenerateProtein("p4000", 4000, 13), Default()},
		{slice, Default()},
		{molecule.GenerateProtein("fine", 150, 14), Options{SubdivLevel: 2, Degree: 3, RadiusScale: 1.1}},
		{atomsOf("one", at(1, 2, 3, 1.7)), Default()},
		{atomsOf("coincident", at(0, 0, 0, 1.5), at(0, 0, 0, 1.5), at(0.5, 0, 0, 1.2)), Default()},
		{atomsOf("nested", at(0, 0, 0, 3), at(0.4, 0.1, 0, 1), at(2.5, 0, 0, 1.8)), Default()},
		{atomsOf("tangent", at(0, 0, 0, 1), at(2, 0, 0, 1), at(0, 3, 0, 2)), Default()},
		{atomsOf("isolated", at(0, 0, 0, 1.5), at(50, 0, 0, 1.5), at(0, 80, 0, 2), at(0.8, 0, 0, 1.5)), Default()},
		{atomsOf("uneven", at(0, 0, 0, 1000), at(1000.5, 0, 0, 1), at(1001.9, 0, 0, 0.5)), Default()},
	}
	for _, c := range cases {
		want, wantOwn := sampleOracle(c.mol, c.opt)
		if c.mol.N() >= 300 && len(want) < 10*c.mol.N() {
			t.Fatalf("%s: oracle kept only %d points of %d atoms", c.mol.Name, len(want), c.mol.N())
		}
		for _, workers := range []int{1, 2, 3, 8} {
			got, gotOwn := sample(c.mol, c.opt, workers, true)
			if err := samePoints(got, gotOwn, want, wantOwn); err != nil {
				t.Errorf("%s workers=%d: %v", c.mol.Name, workers, err)
			}
		}
	}
}

func samePoints(got []QPoint, gotOwn []int32, want []QPoint, wantOwn []int32) error {
	if len(got) != len(want) || len(gotOwn) != len(wantOwn) {
		return fmt.Errorf("%d points / %d owners, oracle %d / %d", len(got), len(gotOwn), len(want), len(wantOwn))
	}
	for i := range want {
		if got[i] != want[i] || gotOwn[i] != wantOwn[i] {
			return fmt.Errorf("point %d: %+v owner %d, oracle %+v owner %d", i, got[i], gotOwn[i], want[i], wantOwn[i])
		}
	}
	return nil
}

// TestSampleWrappers pins the three entry points to the oracle, the
// parallel one at several worker counts, and checks the degenerate inputs
// every caller relies on.
func TestSampleWrappers(t *testing.T) {
	m := molecule.GenerateProtein("w", 120, 92)
	want, own := sampleOracle(m, Default())
	got, gotOwn := SampleOwned(m, Default())
	if err := samePoints(got, gotOwn, want, own); err != nil {
		t.Error("SampleOwned:", err)
	}
	if err := samePoints(Sample(m, Default()), own, want, own); err != nil {
		t.Error("Sample:", err)
	}
	for _, workers := range []int{0, 2, 4} {
		if err := samePoints(SampleParallel(m, Default(), workers), own, want, own); err != nil {
			t.Errorf("SampleParallel(workers=%d): %v", workers, err)
		}
	}
	if got := SampleParallel(&molecule.Molecule{}, Default(), 4); len(got) != 0 {
		t.Error("empty molecule produced points")
	}
	if cap(got) != len(got) {
		t.Errorf("output over-allocated: len %d cap %d", len(got), cap(got))
	}
}

func BenchmarkSampleParallel2000(b *testing.B) {
	m := molecule.GenerateProtein("bp", 2000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SampleParallel(m, Default(), 4)
	}
}
