package engine

import (
	"fmt"
	"testing"

	"octgb/internal/core"
)

// The engine-level equivalence suite: every real engine — streamed Born
// lists, the held dual E_pol list, SoA kernels, overlapped collectives —
// must reproduce the serial pipeline: energies and radii to 1e-12
// (summation order differs) and identical treecode work counters, OctCilk
// included at any thread count (its frontier pairs plus the expansion's
// own visits are the serial dual traversal). The serial pipeline runs
// core's lists whole on one thread; core holds those lists to its
// recursive treecodes of Figs. 2 and 3 the same way (identical Stats,
// 1e-12: TestBornFlatListMatchesRecursive, TestEpolFlatListMatchesRecursive,
// and the streamed forms to the materialised ones), so an engine that
// matches it matches the recursion.

// serialResult is what the serial pipeline computes.
type serialResult struct {
	Epol                 float64
	BornRadii            []float64
	BornStats, EpolStats core.Stats
}

// serialReference runs the serial pipeline at the engines' default ε: the
// dual-tree traversals for OctCilk, the leaf-driven ones otherwise.
func serialReference(pr *Problem, k Kind) serialResult {
	var ref serialResult
	bs := core.NewBornSolver(pr.Mol, pr.QPts, core.BornConfig{Eps: 0.9})
	sNode, sAtom := bs.NewAccumulators()
	var tile core.InteractionList
	if k == OctCilk {
		ref.BornStats = bs.EvalBornList(bs.BuildBornDualList(), sNode, sAtom)
	} else {
		ref.BornStats = bs.StreamBornLeaves(&tile, 0, bs.NumQLeaves(), sNode, sAtom)
	}
	rTree := make([]float64, pr.Mol.N())
	bs.PushIntegrals(sNode, sAtom, 0, int32(len(rTree)), rTree)
	ref.BornRadii = bs.RadiiToOriginal(rTree)
	es := core.NewEpolSolver(bs.TA, pr.Charges, ref.BornRadii, core.EpolConfig{Eps: 0.9})
	var raw float64
	if k == OctCilk {
		raw, ref.EpolStats = es.EvalEpolList(es.BuildEpolDualList())
	} else {
		ref.EpolStats = es.StreamEpolLeaves(&tile, 0, es.NumLeaves(), &raw)
	}
	ref.Epol = raw * core.EnergyScale()
	return ref
}

func TestFlatMatchesRecursiveAcrossEngines(t *testing.T) {
	pr := testProblem(900, 71)
	cases := []struct {
		kind Kind
		o    Options
	}{
		{OctCilk, Options{Threads: 1}},
		{OctCilk, Options{Threads: 4}},
		{OctMPI, Options{Ranks: 3}},
		{OctMPICilk, Options{Ranks: 2, Threads: 3}},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%v/P=%d/p=%d", c.kind, c.o.Ranks, c.o.Threads), func(t *testing.T) {
			// "exact" names the one arithmetic; the case names stay stable.
			t.Run("exact", func(t *testing.T) {
				got, err := RunReal(pr, c.kind, c.o)
				if err != nil {
					t.Fatal(err)
				}
				want := serialReference(pr, c.kind)
				if e := relErr(got.Energy, want.Epol); e > 1e-12 {
					t.Errorf("energy: engine %v vs reference %v (rel %v)", got.Energy, want.Epol, e)
				}
				for i := range want.BornRadii {
					if e := relErr(got.BornRadii[i], want.BornRadii[i]); e > 1e-12 {
						t.Fatalf("radius[%d]: engine %v vs reference %v", i, got.BornRadii[i], want.BornRadii[i])
					}
				}
				if got.BornStats != want.BornStats || got.EpolStats != want.EpolStats {
					t.Errorf("stats: engine %+v/%+v vs reference %+v/%+v",
						got.BornStats, got.EpolStats, want.BornStats, want.EpolStats)
				}
			})
		})
	}
}

// TestFlatDistributedDataEnergy: the NaN-poisoned distributed-data engine
// must reproduce the reference too — the flat kernels respect the same
// residency contract as the recursion.
func TestFlatDistributedDataEnergy(t *testing.T) {
	pr := testProblem(600, 72)
	got, err := RunDistributedDataEnergy(pr, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := serialReference(pr, OctMPI).Epol; relErr(got, want) > 1e-12 {
		t.Errorf("distributed-data energy %v vs reference %v (rel %v)", got, want, relErr(got, want))
	}
}
