package core

import (
	"fmt"
	"math/bits"
	"testing"

	"octgb/internal/molecule"
	"octgb/internal/surface"
)

// The golden-equivalence suite: the flat interaction-list path must
// reproduce the recursive oracle exactly — identical Stats counters, and
// accumulators/energies equal to 1e-12 relative — on seeded synthetic
// molecules, for both integrand exponents and both traversal variants.

func goldenSizes(t testing.TB) []int {
	if testing.Short() {
		return []int{256, 2000}
	}
	return []int{256, 2000, 10000}
}

func assertClose(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	for i := range got {
		if e := relErr(got[i], want[i]); e > 1e-12 {
			t.Fatalf("%s[%d]: flat %v vs recursive %v (rel %v)", label, i, got[i], want[i], e)
		}
	}
}

func TestBornFlatListMatchesRecursive(t *testing.T) {
	for _, n := range goldenSizes(t) {
		for _, exp := range []int{6, 4} {
			t.Run(fmt.Sprintf("n=%d/r%d", n, exp), func(t *testing.T) {
				m, q := testMol(n, int64(41+n+exp))
				bs := NewBornSolver(m, q, BornConfig{Eps: 0.9, Exponent: exp})

				// Single-tree variant.
				rn, ra := bs.NewAccumulators()
				var rst Stats
				for l := 0; l < bs.NumQLeaves(); l++ {
					rst.Add(bs.AccumulateQLeaf(l, rn, ra))
				}
				list := bs.BuildBornList(0, bs.NumQLeaves())
				fn, fa := bs.NewAccumulators()
				fst := bs.EvalBornList(list, fn, fa)
				if fst != rst {
					t.Fatalf("single-tree stats: flat %+v vs recursive %+v", fst, rst)
				}
				assertClose(t, "sNode", fn, rn)
				assertClose(t, "sAtom", fa, ra)

				rRec := make([]float64, m.N())
				bs.PushIntegrals(rn, ra, 0, int32(m.N()), rRec)
				rFlat := make([]float64, m.N())
				bs.PushIntegrals(fn, fa, 0, int32(m.N()), rFlat)
				assertClose(t, "BornRadii", rFlat, rRec)

				// Dual-tree variant.
				dn, da := bs.NewAccumulators()
				dst := bs.AccumulateDual(dn, da)
				dual := bs.BuildBornDualList()
				gn, ga := bs.NewAccumulators()
				gst := bs.EvalBornList(dual, gn, ga)
				if gst != dst {
					t.Fatalf("dual stats: flat %+v vs recursive %+v", gst, dst)
				}
				assertClose(t, "dual sNode", gn, dn)
				assertClose(t, "dual sAtom", ga, da)
			})
		}
	}
}

func TestEpolFlatListMatchesRecursive(t *testing.T) {
	for _, n := range goldenSizes(t) {
		// "math=0" names the one arithmetic; the case names stay stable.
		t.Run(fmt.Sprintf("n=%d/math=0", n), func(t *testing.T) {
			m, q := testMol(n, int64(61+n))
			R := treecodeRadii(m, q)
			es := NewEpolSolverFromMolecule(m, R, 0, EpolConfig{Eps: 0.9})

			// Leaf-driven variant.
			var rRaw float64
			var rst Stats
			for l := 0; l < es.NumLeaves(); l++ {
				e, st := es.LeafEnergy(l)
				rRaw += e
				rst.Add(st)
			}
			list := es.BuildEpolList(0, es.NumLeaves())
			fRaw, fst := es.EvalEpolList(list)
			if fst != rst {
				t.Fatalf("leaf-driven stats: flat %+v vs recursive %+v", fst, rst)
			}
			if e := relErr(fRaw, rRaw); e > 1e-12 {
				t.Fatalf("leaf-driven energy: flat %v vs recursive %v (rel %v)", fRaw, rRaw, e)
			}

			// Dual-tree variant.
			dRaw, dst := es.EnergyDual()
			dual := es.BuildEpolDualList()
			gRaw, gst := es.EvalEpolList(dual)
			if gst != dst {
				t.Fatalf("dual stats: flat %+v vs recursive %+v", gst, dst)
			}
			if e := relErr(gRaw, dRaw); e > 1e-12 {
				t.Fatalf("dual energy: flat %v vs recursive %v (rel %v)", gRaw, dRaw, e)
			}
		})
	}
}

// treecodeRadii computes Born radii through the treecode (cheaper than
// the exact reference for the 10k golden case).
func treecodeRadii(m *molecule.Molecule, q []surface.QPoint) []float64 {
	bs := NewBornSolver(m, q, BornConfig{Eps: 0.9})
	sN, sA := bs.NewAccumulators()
	for l := 0; l < bs.NumQLeaves(); l++ {
		bs.AccumulateQLeaf(l, sN, sA)
	}
	rT := make([]float64, m.N())
	bs.PushIntegrals(sN, sA, 0, int32(m.N()), rT)
	return bs.RadiiToOriginal(rT)
}

// TestFlatListSegmentsCompose: building lists per q-leaf segment and
// evaluating them separately composes to the full result — the property
// the per-rank engines rely on.
func TestFlatListSegmentsCompose(t *testing.T) {
	m, q := testMol(600, 77)
	bs := NewBornSolver(m, q, BornConfig{Eps: 0.9})
	full := bs.BuildBornList(0, bs.NumQLeaves())
	fn, fa := bs.NewAccumulators()
	fullStats := bs.EvalBornList(full, fn, fa)

	sn, sa := bs.NewAccumulators()
	var segStats Stats
	third := bs.NumQLeaves() / 3
	for _, seg := range [][2]int{{0, third}, {third, 2 * third}, {2 * third, bs.NumQLeaves()}} {
		l := bs.BuildBornList(seg[0], seg[1])
		segStats.Add(bs.EvalBornList(l, sn, sa))
	}
	if segStats != fullStats {
		t.Fatalf("segmented stats %+v != full %+v", segStats, fullStats)
	}
	assertClose(t, "sNode", sn, fn)
	assertClose(t, "sAtom", sa, fa)
}

var benchSolver struct {
	bs   *BornSolver
	es   *EpolSolver
	born *InteractionList
	epol *InteractionList
}

func benchSetup(b *testing.B) {
	if benchSolver.bs == nil {
		m, q := testMol(10000, 5)
		benchSolver.bs = NewBornSolver(m, q, BornConfig{Eps: 0.9})
		benchSolver.born = benchSolver.bs.BuildBornList(0, benchSolver.bs.NumQLeaves())
		R := treecodeRadii(m, q)
		benchSolver.es = NewEpolSolverFromMolecule(m, R, 0, EpolConfig{Eps: 0.9})
		benchSolver.epol = benchSolver.es.BuildEpolList(0, benchSolver.es.NumLeaves())
	}
	b.ResetTimer()
}

// BenchmarkBornEval10k compares the recursive traversal (traverse +
// evaluate fused) against list construction and flat evaluation at
// N ≈ 10k atoms — the headline near-field kernel numbers.
func BenchmarkBornEval10k(b *testing.B) {
	b.Run("recursive", func(b *testing.B) {
		benchSetup(b)
		bs := benchSolver.bs
		sN, sA := bs.NewAccumulators()
		for i := 0; i < b.N; i++ {
			for l := 0; l < bs.NumQLeaves(); l++ {
				bs.AccumulateQLeaf(l, sN, sA)
			}
		}
	})
	b.Run("flat-build", func(b *testing.B) {
		benchSetup(b)
		bs := benchSolver.bs
		for i := 0; i < b.N; i++ {
			bs.BuildBornList(0, bs.NumQLeaves())
		}
	})
	b.Run("flat-eval", func(b *testing.B) {
		benchSetup(b)
		bs := benchSolver.bs
		sN, sA := bs.NewAccumulators()
		for i := 0; i < b.N; i++ {
			bs.EvalBornList(benchSolver.born, sN, sA)
		}
	})
}

func BenchmarkEpolEval10k(b *testing.B) {
	b.Run("recursive", func(b *testing.B) {
		benchSetup(b)
		es := benchSolver.es
		for i := 0; i < b.N; i++ {
			var raw float64
			for l := 0; l < es.NumLeaves(); l++ {
				e, _ := es.LeafEnergy(l)
				raw += e
			}
			_ = raw
		}
	})
	b.Run("flat-build", func(b *testing.B) {
		benchSetup(b)
		es := benchSolver.es
		for i := 0; i < b.N; i++ {
			es.BuildEpolList(0, es.NumLeaves())
		}
	})
	b.Run("flat-eval", func(b *testing.B) {
		benchSetup(b)
		es := benchSolver.es
		for i := 0; i < b.N; i++ {
			raw, _ := es.EvalEpolList(benchSolver.epol)
			_ = raw
		}
	})
}

// TestFlatListReuse: one list evaluated twice gives bitwise-identical
// results — the reuse property ε-sweeps and docking loops depend on.
func TestFlatListReuse(t *testing.T) {
	m, q := testMol(400, 88)
	bs := NewBornSolver(m, q, BornConfig{Eps: 0.9})
	list := bs.BuildBornList(0, bs.NumQLeaves())
	an, aa := bs.NewAccumulators()
	bs.EvalBornList(list, an, aa)
	bn, ba := bs.NewAccumulators()
	bs.EvalBornList(list, bn, ba)
	for i := range an {
		if an[i] != bn[i] {
			t.Fatalf("sNode[%d] differs across evaluations", i)
		}
	}
	for i := range aa {
		if aa[i] != ba[i] {
			t.Fatalf("sAtom[%d] differs across evaluations", i)
		}
	}
}

// TestBornDualListGrowsByDoubling pins the dual builder's growth: from an
// empty list each of Near and Far is allocated once at 1024 entries and
// once per doubling after that, so a whole list costs a handful of
// allocations instead of the dozens append's 1.25x steps take.
func TestBornDualListGrowsByDoubling(t *testing.T) {
	m, q := testMol(300, 5)
	bs := NewBornSolver(m, q, BornConfig{Eps: 0.9})
	full := bs.BuildBornDualList()
	growths := func(n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(1 + bits.Len(uint((n-1)/1024)))
	}
	want := growths(len(full.Near)) + growths(len(full.Far))
	if want < 8 {
		t.Fatalf("list too small to grow: %d near, %d far entries", len(full.Near), len(full.Far))
	}
	// The traversal stack is kept at its full size, so only Near and Far
	// allocate.
	l := &InteractionList{stack: make(pairStack, 0, 4*cap(full.stack))}
	allocs := testing.AllocsPerRun(3, func() {
		l.Near, l.Far = nil, nil
		bs.BuildBornDualListInto(l)
	})
	if allocs != want {
		t.Errorf("BuildBornDualListInto on an empty list: %v allocs, want %v (%d near, %d far entries)", allocs, want, len(l.Near), len(l.Far))
	}
}
