package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"octgb/internal/geom"
	"octgb/internal/molecule"
	"octgb/internal/surface"
)

// farCluster builds a solver whose two trees are one leaf each: a few
// atoms in a 2 Å box about the origin, and a jittered patch of q-points
// about (sep, 0, 0) whose normals lean toward the atoms, so that ñ_Q·y
// dominates and the far value is far from zero.
func farCluster(sep float64, exponent int) *BornSolver {
	r := rand.New(rand.NewSource(3))
	jit := func(s float64) float64 { return s * (2*r.Float64() - 1) }
	mol := &molecule.Molecule{Name: "far"}
	for i := 0; i < 9; i++ {
		mol.Atoms = append(mol.Atoms, molecule.Atom{Pos: geom.Vec3{X: jit(1), Y: jit(1), Z: jit(1)}, Radius: 1.5})
	}
	var qpts []surface.QPoint
	for i := 0; i < 16; i++ {
		n := geom.Vec3{X: -1, Y: jit(0.4), Z: jit(0.4)}
		qpts = append(qpts, surface.QPoint{
			Pos:    geom.Vec3{X: sep + jit(0.5), Y: jit(1), Z: jit(1)},
			Normal: n.Scale(1 / n.Norm()),
			Weight: 0.5 + r.Float64(),
		})
	}
	return NewBornSolver(mol, qpts, BornConfig{Exponent: exponent, LeafSize: 64})
}

// farErrors returns, for the one (T_A root, T_Q root) pair, the largest
// per-atom error of the zeroth-order term (ñ_Q·y/|y|ᵖ at A's center) and
// of the first-order term (farTerm, its gradient applied at the atom),
// each relative to the largest exact per-atom sum over Q's points.
func farErrors(s *BornSolver) (zeroth, first float64) {
	dx, dy, dz := s.TQ.CX[0]-s.TA.CX[0], s.TQ.CY[0]-s.TA.CY[0], s.TQ.CZ[0]-s.TA.CZ[0]
	v, gx, gy, gz := s.farTerm(0, dx, dy, dz)
	d2 := dx*dx + dy*dy + dz*dz
	v0 := (s.wnNX[0]*dx + s.wnNY[0]*dy + s.wnNZ[0]*dz) * s.kernel(d2)
	var worst0, worst1, scale float64
	for i := range s.TA.Points {
		x := s.TA.Points[i]
		var exact float64
		for j := range s.TQ.Points {
			dv := s.TQ.Points[j].Sub(x)
			exact += s.wn(int32(j)).Dot(dv) * s.kernel(dv.Norm2())
		}
		at := v + gx*(x.X-s.TA.CX[0]) + gy*(x.Y-s.TA.CY[0]) + gz*(x.Z-s.TA.CZ[0])
		worst0 = math.Max(worst0, math.Abs(v0-exact))
		worst1 = math.Max(worst1, math.Abs(at-exact))
		scale = math.Max(scale, math.Abs(exact))
	}
	return worst0 / scale, worst1 / scale
}

// TestFarTermIsSecondOrder holds the far term to its order against direct
// summation over Q's points at each of A's atoms, for both integrands:
// each doubling of the separation cuts the first-order term's relative
// error about 4× (its error is second order in size over distance) and
// the zeroth-order term's about 2×, and the first-order term is the more
// accurate at every separation.
func TestFarTermIsSecondOrder(t *testing.T) {
	for _, p := range []int{6, 4} {
		var prev0, prev1 float64
		for k, sep := range []float64{10, 20, 40, 80} {
			e0, e1 := farErrors(farCluster(sep, p))
			t.Logf("p=%d sep=%v: zeroth-order %.3e, first-order %.3e", p, sep, e0, e1)
			if e1 >= e0 {
				t.Errorf("p=%d sep=%v: first-order error %.3e not below zeroth-order %.3e", p, sep, e1, e0)
			}
			if k > 0 {
				r0, r1 := prev0/e0, prev1/e1
				name := fmt.Sprintf("p=%d sep %v→%v", p, sep/2, sep)
				if r0 < 1.6 || r0 > 2.6 {
					t.Errorf("%s: zeroth-order error fell %.2f×, want about 2×", name, r0)
				}
				if r1 < 3.2 || r1 > 5 {
					t.Errorf("%s: first-order error fell %.2f×, want about 4×", name, r1)
				}
			}
			prev0, prev1 = e0, e1
		}
	}
}

// TestBornFarVecMatchesScalar pins the AVX2 far kernel to the scalar
// farTerm bit for bit, on the dual list (short runs, internal nodes of
// both trees) and on a leaf-driven one (long runs), for both integrands.
func TestBornFarVecMatchesScalar(t *testing.T) {
	m, q := testMol(1500, 21)
	for _, cfg := range []BornConfig{{Eps: 0.9}, {Eps: 0.5, Exponent: 4}} {
		bs := NewBornSolver(m, q, cfg)
		for name, l := range map[string]*InteractionList{
			"dual":   bs.BuildBornDualList(),
			"leaves": bs.BuildBornList(0, bs.NumQLeaves()),
		} {
			vec, _ := bs.NewAccumulators()
			bs.EvalBornFarRange(l, 0, len(l.Far), vec)
			scalar, _ := bs.NewAccumulators()
			forceScalar(func() { bs.EvalBornFarRange(l, 0, len(l.Far), scalar) })
			for i := range scalar {
				if math.Float64bits(vec[i]) != math.Float64bits(scalar[i]) {
					t.Fatalf("%+v %s: sNode[%d] vector %v, scalar %v", cfg, name, i, vec[i], scalar[i])
				}
			}
		}
	}
}
