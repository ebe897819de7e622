package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

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

// solveOn builds a solver pair through Free holding only the given donors
// (nil: none) and runs the Born phase both ways, the push, and the dual,
// leaf-driven and held-list dual energy traversals. It returns the solvers
// so that a caller can release them or look at their storage.
func solveOn(mol *molecule.Molecule, qpts []surface.QPoint, bd *BornSolver, ed *EpolSolver) (solveRun, *BornSolver, *EpolSolver) {
	var r solveRun
	Free.Drain()
	bd.Release()
	ed.Release()
	bs := NewBornSolver(mol, qpts, BornConfig{Eps: 0.9})
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
	es := NewEpolSolver(bs.TA, charges, r.radii, EpolConfig{Eps: 0.9})
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
// radii, energies and work counters of fresh solvers bit for bit. Storage that fits is reused; an oversized donor is not.
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
	want, _, _ := solveOn(mol, qpts, nil, nil)
	for _, d := range donors {
		dq := d.qpts
		if dq == nil {
			dq = surface.Sample(d.mol, surface.Default())
		}
		_, bd, ed := solveOn(d.mol, dq, nil, nil)
		ta, x, q := bd.TA, bd.TQ.X, ed.q
		got, bs, es := solveOn(mol, qpts, bd, ed)
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

// TestRestrictedSolverIsNotReleased: a Restrict copy shares its parent's
// bins, so its Release hands nothing back and the parent still evaluates
// as before. The recycled-through-the-free-list path gives fresh bits too.
func TestRestrictedSolverIsNotReleased(t *testing.T) {
	mol, qpts := testMol(300, 66)
	want, bs, es := solveOn(mol, qpts, nil, nil)
	Free.Drain()
	es.Restrict(bs.TA.LeafIdx[:1]).Release()
	if Free.Held() != 0 {
		t.Fatal("releasing a Restrict copy handed a solver to the free list")
	}
	if e, _ := es.EnergyDual(); math.Float64bits(e) != math.Float64bits(want.energy[0]) {
		t.Fatalf("the parent after its copy's Release: energy %.17g, before %.17g", e, want.energy[0])
	}
	// Through the free list: whatever NewBornSolver and NewEpolSolver find
	// there, the bits are the fresh ones.
	es.Release()
	bs.Release()
	for i := 0; i < 2; i++ {
		got, bs, es := solveOn(mol, qpts, Take[BornSolver](&Free, mol.N()+len(qpts)), Take[EpolSolver](&Free, mol.N()))
		sameRun(t, "recycled", got, want)
		es.Release()
		bs.Release()
	}
}

// TestMemoryBytesCountsCapacity: a solver built in a larger donor's
// storage reports the capacity it holds, not the length it uses.
func TestMemoryBytesCountsCapacity(t *testing.T) {
	mol, qpts := testMol(300, 67)
	big := molecule.GenerateProtein("big", 500, 68)
	_, fbs, fes := solveOn(mol, qpts, nil, nil)
	_, bd, ed := solveOn(big, surface.Sample(big, surface.Default()), nil, nil)
	donorB, donorE := bd.MemoryBytes(), ed.MemoryBytes()
	_, bs, es := solveOn(mol, qpts, bd, ed)
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

// TestFreeListRules: a take is of the newest donor of its type, or a new
// value; a donor with room for more than twice the build goes to the
// garbage collector rather than back; a put that would pass FreeCap drops
// the oldest donors first, and a donor larger than FreeCap is not kept.
func TestFreeListRules(t *testing.T) {
	var l FreeList
	a, b, c := new(BornSolver), new(BornSolver), new(EpolSolver)
	l.Put(a, 100, 10)
	l.Put(c, 100, 20)
	l.Put(b, 100, 30)
	if got := Take[BornSolver](&l, 100); got != b {
		t.Fatalf("took %p, want the newest Born donor %p", got, b)
	}
	if got := Take[BornSolver](&l, 49); got == a {
		t.Fatalf("a donor sized 100 backed a build of 49")
	}
	if got := l.Held(); got != 20 {
		t.Fatalf("held %d bytes, want the E_pol donor's 20", got)
	}
	if got := Take[EpolSolver](&l, 50); got != c {
		t.Fatalf("a donor sized 100 did not back a build of 50")
	}
	l.Put(a, 1, FreeCap/2)
	l.Put(b, 1, FreeCap/2)
	l.Put(c, 1, 1)
	if got := l.Held(); got != FreeCap/2+1 {
		t.Fatalf("held %d bytes past the cap, want %d", got, FreeCap/2+1)
	}
	if Take[BornSolver](&l, 1) != b || Take[BornSolver](&l, 1) == a {
		t.Fatal("the cap did not drop the oldest donor")
	}
	l.Put(a, 1, FreeCap+1)
	if got := l.Held(); got != 1 {
		t.Fatalf("held %d bytes after a put larger than the cap, want 1", got)
	}
	l.Drain()
	if l.Held() != 0 || Take[EpolSolver](&l, 1) == c {
		t.Fatal("Drain left a donor")
	}
}

// TestFreeListConcurrent: goroutines put and take donors of two types and
// mixed sizes at once. The held bytes never pass FreeCap, every take gets
// a donor of its type that fits, and what the list holds at the end is
// what it counts.
func TestFreeListConcurrent(t *testing.T) {
	type sizedA struct{ size int }
	type sizedB struct{ size int }
	var l FreeList
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				size, bytes, need := 1+rng.Intn(1000), rng.Int63n(FreeCap/3), 1+rng.Intn(1000)
				fit := true
				switch rng.Intn(4) {
				case 0:
					l.Put(&sizedA{size}, size, bytes)
				case 1:
					l.Put(&sizedB{size}, size, bytes)
				case 2:
					fit = Take[sizedA](&l, need).size <= 2*need
				case 3:
					fit = Take[sizedB](&l, need).size <= 2*need
				}
				if held := l.Held(); held > FreeCap || held < 0 {
					errs <- fmt.Sprintf("held %d bytes, cap %d", held, FreeCap)
					return
				}
				if !fit {
					errs <- fmt.Sprintf("a take of need %d got a donor with room for more than twice it", need)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	var sum int64
	for _, d := range l.donors {
		sum += d.bytes
	}
	if sum != l.Held() {
		t.Errorf("the donors hold %d bytes, the list counts %d", sum, l.Held())
	}
}
