package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"octgb/internal/geom"
	"octgb/internal/molecule"
	"octgb/internal/octree"
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

// epolFarClusters builds an energy solver over two leaves of 12 atoms
// each in 1.8 Å boxes about ∓(sep/2, −sep/10, −sep/10) — one the point
// reflection of the other, so the root's octant split parts them and the
// direction between them stays put as sep grows — with charges of both
// signs and Born radii from 1 to 8 Å, which span several of ε = 0.9's
// bins. It returns the solver and the two leaves.
func epolFarClusters(sep float64) (*EpolSolver, int32, int32) {
	r := rand.New(rand.NewSource(5))
	var pts []geom.Vec3
	for i := 0; i < 12; i++ {
		pts = append(pts, geom.Vec3{X: -sep/2 + 1.8*r.Float64() - 0.9, Y: sep/10 + 1.8*r.Float64() - 0.9, Z: sep/10 + 1.8*r.Float64() - 0.9})
	}
	for i := 0; i < 12; i++ {
		pts = append(pts, pts[i].Scale(-1))
	}
	q, R := make([]float64, len(pts)), make([]float64, len(pts))
	for i := range pts {
		q[i] = 1.5*r.Float64() - 0.5
		R[i] = math.Pow(8, r.Float64())
	}
	s := NewEpolSolver(octree.Build(pts, 16), q, R, EpolConfig{Eps: 0.9})
	var kids []int32
	for _, c := range s.T.Nodes[0].Children {
		if c != octree.NoChild {
			kids = append(kids, c)
		}
	}
	if len(kids) != 2 || !s.T.Nodes[kids[0]].Leaf || !s.T.Nodes[kids[1]].Leaf {
		panic(fmt.Sprintf("sep %v: root children %v, want two leaves", sep, kids))
	}
	return s, kids[0], kids[1]
}

// epolFarErrors returns, for the pair of leaves u, v, the relative error of
// the zeroth-order bin-pair term (each bin's charge at its node's centre)
// and of farPair, both against the atom-pair sum with the same bin R·R.
func epolFarErrors(s *EpolSolver, u, v int32) (zeroth, second float64) {
	f := func(d2, rr float64) float64 { return math.Sqrt(d2 + rr*math.Exp(-d2/(4*rr))) }
	ulo, uhi := s.T.PointRange(u)
	vlo, vhi := s.T.PointRange(v)
	var exact float64
	for i := ulo; i < uhi; i++ {
		for j := vlo; j < vhi; j++ {
			exact += s.q[i] * s.q[j] / f(s.T.Points[i].Dist2(s.T.Points[j]), s.binRR[s.binOf[i]+s.binOf[j]])
		}
	}
	d2 := s.T.Nodes[u].Center.Dist2(s.T.Nodes[v].Center)
	var zero float64
	for a := s.nz.start[u]; a < s.nz.start[u+1]; a++ {
		for b := s.nz.start[v]; b < s.nz.start[v+1]; b++ {
			zero += s.nz.mom[momentFloats*a] * s.nz.mom[momentFloats*b] / f(d2, s.binRR[s.nz.bin[a]+s.nz.bin[b]])
		}
	}
	return math.Abs(zero-exact) / math.Abs(exact), math.Abs(s.EvalEpolFarPair(u, v)-exact) / math.Abs(exact)
}

// TestEpolFarPairIsSecondOrder holds the E_pol far term to its order
// against the atom-pair sum with the bin R·R, two leaves spanning several
// Born-radius bins at 10 to 80 Å: each doubling of the separation cuts
// farPair's relative error about 8× (its remainder is third order in size
// over distance; observed 7.3×, 8.2×, 8.0×), the zeroth-order term's by
// at most about 2× (its error is first order; observed 0.66×, 1.55×,
// 1.80×, since at 10 Å the largest bins' exp(−d²/4RR) still shapes it),
// and farPair is the more accurate at every separation.
func TestEpolFarPairIsSecondOrder(t *testing.T) {
	var prev0, prev2 float64
	for k, sep := range []float64{10, 20, 40, 80} {
		s, u, v := epolFarClusters(sep)
		if s.nnz(u) < 3 || s.nnz(v) < 3 {
			t.Fatalf("sep %v: occupied bins %d and %d, want several", sep, s.nnz(u), s.nnz(v))
		}
		e0, e2 := epolFarErrors(s, u, v)
		t.Logf("sep=%v: zeroth-order %.3e, second-order %.3e", sep, e0, e2)
		if e2 >= e0 {
			t.Errorf("sep=%v: second-order error %.3e not below zeroth-order %.3e", sep, e2, e0)
		}
		if k > 0 {
			r0, r2 := prev0/e0, prev2/e2
			if r0 > 2.6 {
				t.Errorf("sep %v→%v: zeroth-order error fell %.2f×, want at most about 2×", sep/2, sep, r0)
			}
			if r2 < 6.5 || r2 > 9.5 {
				t.Errorf("sep %v→%v: second-order error fell %.2f×, want about 8×", sep/2, sep, r2)
			}
		}
		prev0, prev2 = e0, e2
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
