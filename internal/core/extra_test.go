package core

import (
	"math"
	"testing"

	"octgb/internal/gb"
)

func TestPrintedCriterionDegeneratesToNaive(t *testing.T) {
	// DESIGN.md's criterion note: with the poster-printed (1+ε)^{1/6}
	// acceptance test, protein-scale Born computations accept no cell
	// pair — the treecode performs the naive N·m work.
	m, q := testMol(500, 91)
	bs := NewBornSolver(m, q, BornConfig{Eps: 0.9, CriterionPower: 6})
	sNode, sAtom := bs.NewAccumulators()
	var st Stats
	for l := 0; l < bs.NumQLeaves(); l++ {
		st.Add(bs.AccumulateQLeaf(l, sNode, sAtom))
	}
	nm := int64(m.N()) * int64(len(q))
	if st.NearPairs < nm*98/100 {
		t.Errorf("near pairs %d below 98%% of N·m %d — criterion accepted too much", st.NearPairs, nm)
	}
	// Compare with the default criterion, which accepts orders of
	// magnitude more cell pairs.
	bs1 := NewBornSolver(m, q, BornConfig{Eps: 0.9, CriterionPower: 1})
	s1n, s1a := bs1.NewAccumulators()
	var st1 Stats
	for l := 0; l < bs1.NumQLeaves(); l++ {
		st1.Add(bs1.AccumulateQLeaf(l, s1n, s1a))
	}
	if st1.NearPairs >= st.NearPairs {
		t.Errorf("default criterion near pairs %d not below printed criterion's %d",
			st1.NearPairs, st.NearPairs)
	}
	// And the power-6 result is essentially the naive reference.
	rTree := make([]float64, m.N())
	bs.PushIntegrals(sNode, sAtom, 0, int32(m.N()), rTree)
	R := bs.RadiiToOriginal(rTree)
	exact := gb.BornRadiiR6(m, q)
	for i := range R {
		if e := relErr(R[i], exact[i]); e > 1e-3 {
			t.Fatalf("atom %d: power-6 radius %v vs naive %v", i, R[i], exact[i])
		}
	}
}

func TestEnergyScaleValue(t *testing.T) {
	want := -0.5 * (1 - 1/80.0) * gb.CoulombConstant
	if got := EnergyScale(); math.Abs(got-want) > 1e-12 {
		t.Errorf("EnergyScale = %v, want %v", got, want)
	}
}

func TestDualFrontierCompletesToDual(t *testing.T) {
	// Executing the frontier pairs must reproduce AccumulateDual exactly.
	m, q := testMol(400, 92)
	bs := NewBornSolver(m, q, BornConfig{Eps: 0.9})

	n1, a1 := bs.NewAccumulators()
	want := bs.AccumulateDual(n1, a1)

	// The frontier keeps the recursion's visit order, so the sums are not
	// merely close: every accumulator sees the same additions in the same
	// order, and the step counts add up to the recursion's.
	n2, a2 := bs.NewAccumulators()
	front, got := bs.DualFrontier(64)
	if len(front) < 64 {
		t.Fatalf("frontier too small: %d pairs", len(front))
	}
	for _, pr := range front {
		got.Add(bs.AccumulateDualPair(pr.A, pr.B, n2, a2))
	}
	if got != want {
		t.Errorf("frontier stats %+v, recursion %+v", got, want)
	}
	for i := range n1 {
		if n1[i] != n2[i] {
			t.Fatalf("node accumulator %d differs: %v vs %v", i, n1[i], n2[i])
		}
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("atom accumulator %d differs: %v vs %v", i, a1[i], a2[i])
		}
	}
}

func TestFrontierRequestLargerThanTree(t *testing.T) {
	// Asking for more pairs than the recursion contains must terminate
	// with all-terminal pairs.
	m, q := testMol(60, 94)
	bs := NewBornSolver(m, q, BornConfig{Eps: 0.9})
	fr, _ := bs.DualFrontier(1 << 20)
	if len(fr) == 0 {
		t.Fatal("empty frontier")
	}
	n2, a2 := bs.NewAccumulators()
	for _, pr := range fr {
		bs.AccumulateDualPair(pr.A, pr.B, n2, a2)
	}
	n1, a1 := bs.NewAccumulators()
	bs.AccumulateDual(n1, a1)
	for i := range a1 {
		if math.Abs(a1[i]-a2[i]) > 1e-12*(1+math.Abs(a1[i])) {
			t.Fatalf("saturated frontier wrong at atom %d", i)
		}
	}
}

func TestLeafEnergyRowsPartition(t *testing.T) {
	// Summing row-restricted energies over disjoint ranges equals the
	// full leaf-driven sum (linearity of the far field in row charges).
	m, q := testMol(350, 95)
	R := gb.BornRadiiR6(m, q)
	es := NewEpolSolverFromMolecule(m, R, 0, EpolConfig{Eps: 0.9})

	var full float64
	for l := 0; l < es.NumLeaves(); l++ {
		e, _ := es.LeafEnergy(l)
		full += e
	}
	n := int32(m.N())
	var split float64
	for l := 0; l < es.NumLeaves(); l++ {
		e1, _ := es.LeafEnergyRows(l, 0, n/3)
		e2, _ := es.LeafEnergyRows(l, n/3, 2*n/3)
		e3, _ := es.LeafEnergyRows(l, 2*n/3, n)
		split += e1 + e2 + e3
	}
	if e := relErr(split, full); e > 1e-12 {
		t.Errorf("row-partitioned %v != full %v", split, full)
	}
}
