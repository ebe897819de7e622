package core

import (
	"math"
	"runtime"
	"testing"

	"octgb/internal/gb"
	"octgb/internal/molecule"
	"octgb/internal/surface"
)

// solveRun is everything a solver pair computes that the recycling tests
// compare: the Born radii, the energies of three traversals and the work
// counters of each phase.
type solveRun struct {
	radii  []float64
	energy [3]float64
	stats  [5]Stats
}

// solveOn builds a solver pair in the given donors' storage (nil: new
// storage) and runs the Born phase both ways, the push, and the dual,
// leaf-driven and held-list dual energy traversals. It returns the solvers
// so that a caller can release them or look at their storage.
func solveOn(mol *molecule.Molecule, qpts []surface.QPoint, mode gb.MathMode, bd *BornSolver, ed *EpolSolver) (solveRun, *BornSolver, *EpolSolver) {
	var r solveRun
	bs := newBornSolver(mol, qpts, BornConfig{Eps: 0.9}, bd)
	sNode, sAtom := bs.NewAccumulators()
	r.stats[0] = bs.AccumulateDual(sNode, sAtom)
	tile := new(InteractionList)
	sNode2, sAtom2 := bs.NewAccumulators()
	r.stats[1] = bs.StreamBornLeaves(tile, 0, bs.NumQLeaves(), sNode2, sAtom2)
	rTree := make([]float64, mol.N())
	bs.PushIntegrals(sNode2, sAtom2, 0, int32(mol.N()), rTree)
	r.radii = bs.RadiiToOriginal(rTree)
	charges := make([]float64, mol.N())
	for i := range mol.Atoms {
		charges[i] = mol.Atoms[i].Charge
	}
	es := newEpolSolver(bs.TA, charges, r.radii, EpolConfig{Eps: 0.9, Math: mode}, ed)
	r.energy[0], r.stats[2] = es.EnergyDual()
	r.stats[3] = es.StreamEpolLeaves(tile, 0, es.NumLeaves(), &r.energy[1])
	d := es.BuildDualList(8)
	r.energy[2], r.stats[4] = es.evalDualList(d), d.Stats()
	return r, bs, es
}

// sameRun reports the first difference between two runs, bit for bit.
func sameRun(t *testing.T, what string, got, want solveRun) {
	t.Helper()
	for i := range want.radii {
		if math.Float64bits(got.radii[i]) != math.Float64bits(want.radii[i]) {
			t.Fatalf("%s: radius %d is %.17g, fresh %.17g", what, i, got.radii[i], want.radii[i])
		}
	}
	for i := range want.energy {
		if math.Float64bits(got.energy[i]) != math.Float64bits(want.energy[i]) {
			t.Fatalf("%s: energy %d is %.17g, fresh %.17g", what, i, got.energy[i], want.energy[i])
		}
	}
	if got.stats != want.stats {
		t.Fatalf("%s: stats %+v, fresh %+v", what, got.stats, want.stats)
	}
}

// TestRecycledSolversMatchFresh: solvers built in a released pair's storage
// — of a molecule of the same size, a larger and a smaller one, one more
// than twice as large, and a one-atom molecule without q-points — give the
// radii, energies and work counters of fresh solvers bit for bit, in both
// math modes. Storage that fits is reused; an oversized donor is not.
func TestRecycledSolversMatchFresh(t *testing.T) {
	mol, qpts := testMol(300, 61)
	one := &molecule.Molecule{Name: "one", Atoms: []molecule.Atom{{Radius: 1.5, Charge: 0.4}}}
	donors := []struct {
		name   string
		mol    *molecule.Molecule
		qpts   []surface.QPoint
		reused bool
	}{
		{"same size", molecule.GenerateProtein("same", 300, 62), nil, true},
		{"larger", molecule.GenerateProtein("larger", 500, 63), nil, true},
		{"smaller", molecule.GenerateProtein("smaller", 120, 64), nil, true},
		{"oversized", molecule.GenerateProtein("oversized", 900, 65), nil, false},
		{"degenerate", one, []surface.QPoint{}, true},
	}
	for _, mode := range []gb.MathMode{gb.Exact, gb.Approximate} {
		want, _, _ := solveOn(mol, qpts, mode, nil, nil)
		for _, d := range donors {
			dq := d.qpts
			if dq == nil {
				dq = surface.Sample(d.mol, surface.Default())
			}
			_, bd, ed := solveOn(d.mol, dq, mode, nil, nil)
			ta, x, q := bd.TA, bd.TQ.X, ed.q
			got, bs, es := solveOn(mol, qpts, mode, bd, ed)
			sameRun(t, d.name+" donor", got, want)
			// A donor's storage is reused when it fits: its trees and
			// streams when they are large enough, its solver object always.
			reused := bs == bd && es == ed
			if reused != d.reused {
				t.Errorf("%s donor: reused %v, want %v", d.name, reused, d.reused)
			}
			if reused && bs.TA != ta {
				t.Errorf("%s donor: the atoms tree was not rebuilt in place", d.name)
			}
			if reused && cap(x) >= len(qpts) && &bs.TQ.X[0] != &x[0] {
				t.Errorf("%s donor: the q-point mirrors were not reused", d.name)
			}
			if reused && cap(q) >= mol.N() && &es.q[0] != &q[0] {
				t.Errorf("%s donor: the charge stream was not reused", d.name)
			}
		}
	}
}

// TestRestrictedSolverIsNotReleased: a Restrict copy shares its parent's
// bins, so its Release hands nothing back and the parent still evaluates
// as before. The recycled-through-the-pool path gives fresh bits too.
func TestRestrictedSolverIsNotReleased(t *testing.T) {
	mol, qpts := testMol(300, 66)
	want, bs, es := solveOn(mol, qpts, gb.Exact, nil, nil)
	runtime.GC() // two collections empty the pools
	runtime.GC()
	es.Restrict(bs.TA.LeafIdx[:1]).Release()
	if take[EpolSolver](&epolPool) != nil {
		t.Fatal("releasing a Restrict copy handed a solver to the pool")
	}
	if e, _ := es.EnergyDual(); math.Float64bits(e) != math.Float64bits(want.energy[0]) {
		t.Fatalf("the parent after its copy's Release: energy %.17g, before %.17g", e, want.energy[0])
	}
	// Through the pools: whatever NewBornSolver and NewEpolSolver find
	// there, the bits are the fresh ones.
	es.Release()
	bs.Release()
	for i := 0; i < 2; i++ {
		got, bs, es := solveOn(mol, qpts, gb.Exact, take[BornSolver](&bornPool), take[EpolSolver](&epolPool))
		sameRun(t, "pooled", got, want)
		es.Release()
		bs.Release()
	}
}

// TestMemoryBytesCountsCapacity: a solver built in a larger donor's
// storage reports the capacity it holds, not the length it uses.
func TestMemoryBytesCountsCapacity(t *testing.T) {
	mol, qpts := testMol(300, 67)
	big := molecule.GenerateProtein("big", 500, 68)
	_, fbs, fes := solveOn(mol, qpts, gb.Exact, nil, nil)
	_, bd, ed := solveOn(big, surface.Sample(big, surface.Default()), gb.Exact, nil, nil)
	donorB, donorE := bd.MemoryBytes(), ed.MemoryBytes()
	_, bs, es := solveOn(mol, qpts, gb.Exact, bd, ed)
	if bs != bd || es != ed {
		t.Fatal("the donor was not reused")
	}
	if got := bs.MemoryBytes(); got < donorB || got <= fbs.MemoryBytes() {
		t.Errorf("Born solver on a larger donor: MemoryBytes %d, donor %d, fresh %d", got, donorB, fbs.MemoryBytes())
	}
	if got := es.MemoryBytes(); got <= fes.MemoryBytes() {
		t.Errorf("E_pol solver on a larger donor: MemoryBytes %d, donor %d, fresh %d", got, donorE, fes.MemoryBytes())
	}
}
