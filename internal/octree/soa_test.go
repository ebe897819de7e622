package octree

import (
	"math/rand"
	"reflect"
	"testing"

	"octgb/internal/geom"
)

func randPoints(n int, seed int64) []geom.Vec3 {
	r := rand.New(rand.NewSource(seed))
	pts := make([]geom.Vec3, n)
	for i := range pts {
		pts[i] = geom.V(r.Float64()*40-20, r.Float64()*40-20, r.Float64()*40-20)
	}
	return pts
}

func TestSoAMirrorsMatchPoints(t *testing.T) {
	for _, n := range []int{0, 1, 17, 500} {
		tr := Build(randPoints(n, int64(n)+1), 0)
		if err := tr.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(tr.X) != n || len(tr.Y) != n || len(tr.Z) != n {
			t.Fatalf("n=%d: SoA lengths %d/%d/%d", n, len(tr.X), len(tr.Y), len(tr.Z))
		}
	}
}

func TestSoAMirrorsFollowTransform(t *testing.T) {
	tr := Build(randPoints(300, 7), 0)
	m := geom.RotationAxisAngle(geom.V(0, 0, 1), 0.7).Compose(geom.Translation(geom.V(3, -2, 1)))
	tt := tr.Transform(m)
	if err := tt.Validate(); err != nil {
		t.Fatal(err)
	}
	// Mirrors must be fresh slices, not aliases of the source tree's.
	if len(tr.X) > 0 && &tt.X[0] == &tr.X[0] {
		t.Error("Transform aliased the source tree's SoA mirrors")
	}
}

func TestFillSoAReallocates(t *testing.T) {
	tr := Build(randPoints(64, 11), 0)
	oldX := tr.X
	tr.FillSoA()
	if len(oldX) > 0 && &tr.X[0] == &oldX[0] {
		t.Error("FillSoA reused the previous backing array")
	}
}

// TestRebuildMatchesBuildOwned: a tree rebuilt over a donor — larger,
// smaller, empty, coincident — equals a fresh BuildOwned of the same input
// field for field, and reuses the donor's arrays where they are large
// enough.
func TestRebuildMatchesBuildOwned(t *testing.T) {
	clumped := make([]geom.Vec3, 300)
	for i := range clumped {
		clumped[i] = geom.V(float64(i%3), 0, 0)
	}
	inputs := map[string][]geom.Vec3{
		"large":      randPoints(2000, 1),
		"small":      randPoints(90, 2),
		"one":        {geom.V(1, 2, 3)},
		"none":       nil,
		"coincident": clumped,
	}
	for dname, dpts := range inputs {
		for name, pts := range inputs {
			for _, leaf := range []int{0, 3} {
				donor := BuildOwned(append([]geom.Vec3(nil), dpts...), leaf)
				perm := donor.Perm
				got := donor.Rebuild(append([]geom.Vec3(nil), pts...), leaf)
				want := BuildOwned(append([]geom.Vec3(nil), pts...), leaf)
				if got != donor {
					t.Fatal("Rebuild returned another tree")
				}
				got.oct = nil // build scratch, which BuildOwned drops
				if !reflect.DeepEqual(exported(got), exported(want)) {
					t.Errorf("donor %s, input %s, leaf %d: the rebuilt tree differs from BuildOwned's", dname, name, leaf)
				}
				if len(pts) > 0 && cap(perm) >= len(pts) && &got.Perm[0] != &perm[0] {
					t.Errorf("donor %s, input %s: Rebuild did not reuse Perm", dname, name)
				}
			}
		}
	}
}

// exported is the tree without its storage capacity: the slices trimmed
// to their length, nil and empty alike.
func exported(t *Tree) []any {
	trim := func(v any) any {
		if rv := reflect.ValueOf(v); rv.Len() == 0 {
			return nil
		}
		return v
	}
	return []any{trim(t.Nodes), trim(t.Points), trim(t.Perm), trim(t.LeafIdx), t.LeafSize, trim(t.Skip),
		trim(t.X), trim(t.Y), trim(t.Z), trim(t.CX), trim(t.CY), trim(t.CZ), trim(t.CR)}
}
