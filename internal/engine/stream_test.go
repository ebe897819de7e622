package engine

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"octgb/internal/cluster"
	"octgb/internal/core"
	"octgb/internal/molecule"
	"octgb/internal/surface"
	"octgb/internal/testutil"
)

// materialisedRadii is the Born phase as one serial pass: for the dual
// traversal (dual = true) one whole list, built and then evaluated through
// the public builder, and for the single-tree traversal one stream over
// every q-leaf into one accumulator, which core's tests hold to the whole
// list bit for bit.
func materialisedRadii(pr *Problem, dual bool) (*core.BornSolver, []float64, core.Stats) {
	bs := core.NewBornSolver(pr.Mol, pr.QPts, core.BornConfig{Eps: 0.9})
	sNode, sAtom := bs.NewAccumulators()
	var st core.Stats
	if dual {
		st = bs.EvalBornList(bs.BuildBornDualList(), sNode, sAtom)
	} else {
		st = bs.StreamBornLeaves(new(core.InteractionList), 0, bs.NumQLeaves(), sNode, sAtom)
	}
	n := int32(pr.Mol.N())
	rTree := make([]float64, n)
	bs.PushIntegrals(sNode, sAtom, 0, n, rTree)
	return bs, bs.RadiiToOriginal(rTree), st
}

// TestStreamedEnginesMatchMaterialised runs the streamed Born phase through
// every engine shape and both transports against that reference: the same
// work counters always, the same bits in the Born radii when one thread
// per rank keeps the addition order (one rank) or the energy to 1e-12
// (any decomposition).
func TestStreamedEnginesMatchMaterialised(t *testing.T) {
	defer testutil.Watchdog(t, 0)()
	pr := testProblem(500, 31)

	bs, radii, bornSt := materialisedRadii(pr, false)
	es := core.NewEpolSolver(bs.TA, pr.Charges, radii, core.EpolConfig{Eps: 0.9})
	var raw float64
	es.StreamEpolLeaves(new(core.InteractionList), 0, es.NumLeaves(), &raw)
	want := raw * core.EnergyScale()

	check := func(t *testing.T, rep RealReport, ranks, threads int) {
		t.Helper()
		if e := relErr(rep.Energy, want); e > 1e-12 {
			t.Errorf("energy %v, materialised %v (rel %v)", rep.Energy, want, e)
		}
		if ranks == 1 && threads == 1 {
			for i := range radii {
				if math.Float64bits(rep.BornRadii[i]) != math.Float64bits(radii[i]) {
					t.Fatalf("Born radius %d = %v, materialised %v", i, rep.BornRadii[i], radii[i])
				}
			}
		}
	}
	for _, ranks := range []int{1, 2, 3, 5} {
		for _, threads := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("local/%dx%d", ranks, threads), func(t *testing.T) {
				rep, err := RunReal(pr, OctMPICilk, Options{Ranks: ranks, Threads: threads})
				if err != nil {
					t.Fatal(err)
				}
				check(t, rep, ranks, threads)
				if rep.BornStats != bornSt {
					t.Errorf("BornStats %+v, materialised %+v", rep.BornStats, bornSt)
				}
			})
			t.Run(fmt.Sprintf("tcp/%dx%d", ranks, threads), func(t *testing.T) {
				reps := make([]RealReport, ranks)
				overTCP(t, ranks, func(c cluster.Comm, rank int) error {
					rep, err := RunRank(c, pr, Options{Threads: threads})
					reps[rank] = rep
					return err
				})
				var st core.Stats
				for _, rep := range reps {
					check(t, rep, ranks, threads)
					st.Add(rep.BornStats)
				}
				if st != bornSt {
					t.Errorf("BornStats %+v, materialised %+v", st, bornSt)
				}
			})
		}
	}

	// The shared-memory engine streams the dual traversal.
	_, dualRadii, dualSt := materialisedRadii(pr, true)
	for _, threads := range []int{1, 2, 4} {
		p, err := Prepare(pr, Options{Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		if p.BornStats != dualSt {
			t.Errorf("Prepare threads=%d: BornStats %+v, materialised %+v", threads, p.BornStats, dualSt)
		}
		for i := range dualRadii {
			if threads == 1 && math.Float64bits(p.BornRadii[i]) != math.Float64bits(dualRadii[i]) {
				t.Fatalf("Prepare: Born radius %d = %v, materialised %v", i, p.BornRadii[i], dualRadii[i])
			}
			if e := relErr(p.BornRadii[i], dualRadii[i]); e > 1e-12 {
				t.Fatalf("Prepare threads=%d: Born radius %d = %v, materialised %v", threads, i, p.BornRadii[i], dualRadii[i])
			}
		}
	}
}

// TestStreamedStep6 holds the leaf-driven engines' streamed energy phase to
// core's serial stream over all driver leaves: with one thread per rank a
// pool runs its chunks in ascending order into one accumulator, so one rank
// is that sum bit for bit; with several workers sharing the solver and
// owning a tile each, the energy moves by reassociation only and the work
// counters not at all.
func TestStreamedStep6(t *testing.T) {
	pr := testProblem(700, 37)
	bs, radii, _ := materialisedRadii(pr, false)
	es := core.NewEpolSolver(bs.TA, pr.Charges, radii, core.EpolConfig{Eps: 0.9})
	var raw float64
	wantSt := es.StreamEpolLeaves(new(core.InteractionList), 0, es.NumLeaves(), &raw)
	want := raw * core.EnergyScale()
	for _, shape := range [][2]int{{1, 1}, {1, 4}, {2, 3}, {3, 1}} {
		rep, err := RunReal(pr, OctMPICilk, Options{Ranks: shape[0], Threads: shape[1]})
		if err != nil {
			t.Fatal(err)
		}
		if shape == [2]int{1, 1} && math.Float64bits(rep.Energy) != math.Float64bits(want) {
			t.Errorf("1x1: energy %v, the serial stream gives %v", rep.Energy, want)
		}
		if e := relErr(rep.Energy, want); e > 1e-12 {
			t.Errorf("%dx%d: energy %v, serial stream %v (rel %v)", shape[0], shape[1], rep.Energy, want, e)
		}
		if rep.EpolStats != wantSt {
			t.Errorf("%dx%d: EpolStats %+v, serial stream %+v", shape[0], shape[1], rep.EpolStats, wantSt)
		}
	}
}

// TestColdSolveAllocationCeiling keeps the cold path's allocation from
// creeping back: while the engines materialised their Born lists this solve
// allocated 65 MB; with both phases streamed it takes 6.5 MB in
// 585 objects (the q-points, the two octrees, the solvers' coordinate
// streams, the tiles and the pools' task closures). The ceiling is that with
// 1.5× headroom.
func TestColdSolveAllocationCeiling(t *testing.T) {
	mol := molecule.GenerateProtein("alloc", 1000, 5)
	solve := func() {
		pr := NewProblem(mol, surface.Default())
		if _, err := RunReal(pr, OctMPICilk, Options{Ranks: 2, Threads: 1}); err != nil {
			t.Fatal(err)
		}
	}
	solve() // template cache, first-use tables
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 5
	for i := 0; i < runs; i++ {
		solve()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	objects := float64(after.Mallocs-before.Mallocs) / runs
	t.Logf("cold 1000-atom solve: %.1f MB in %.0f objects", bytes/1e6, objects)
	if bytes > 1.5*6.5e6 {
		t.Errorf("cold solve allocates %.1f MB, ceiling %.1f MB", bytes/1e6, 1.5*6.5)
	}
	if objects > 1.5*585 {
		t.Errorf("cold solve allocates %.0f objects, ceiling %.0f", objects, 1.5*585)
	}
}

// TestStreamedEvalEpolMatchesMaterialised holds the shared-memory engine's
// streamed E_pol phase to the materialised dual list it replaced (through
// the public builder, as cmd/bench's probe replays it): the same energy to
// 1e-12 and the same work counters at any thread count, the same bits
// whenever one thread fixes the order — and the dual traversal still lands
// where the leaf-driven engines do.
func TestStreamedEvalEpolMatchesMaterialised(t *testing.T) {
	pr := testProblem(700, 33)
	p, err := Prepare(pr, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	es := core.NewEpolSolver(p.bs.TA, pr.Charges, p.BornRadii, core.EpolConfig{Eps: 0.9})
	raw, wantSt := es.EvalEpolList(es.BuildEpolDualList())
	want := raw * core.EnergyScale()

	var serial float64
	for _, threads := range []int{1, 2, 4} {
		rep, err := p.EvalEpol(Options{Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		if e := relErr(rep.Energy, want); e > 1e-12 {
			t.Errorf("threads=%d: energy %v, materialised %v (rel %v)", threads, rep.Energy, want, e)
		}
		if rep.EpolStats != wantSt {
			t.Errorf("threads=%d: EpolStats %+v, materialised %+v", threads, rep.EpolStats, wantSt)
		}
		if threads == 1 {
			serial = rep.Energy
		}
	}
	again, err := p.EvalEpol(Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(again.Energy) != math.Float64bits(serial) {
		t.Errorf("Threads=1 repeated: %v, then %v", serial, again.Energy)
	}

	mpi, err := RunReal(pr, OctMPI, Options{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(serial, mpi.Energy); e > 0.05 {
		t.Errorf("OCT_CILK %v vs OCT_MPI %v (rel %v)", serial, mpi.Energy, e)
	}
}

// TestWarmEvalEpolAllocationCeiling keeps the E_pol list from quietly
// coming back: while EvalEpol materialised it, a warm evaluation of this
// 2 000-atom Prepared allocated 3.70 MB; streamed, it took 0.33 MB in 149
// objects (the EpolSolver's per-evaluation tables, the frontier, one tile
// and the pool). The ceiling is that with 1.5× headroom. Since the
// Prepared keeps its solver and the tiles come from a pool it takes 0.01
// MB in 81 objects (under -race, whose pool drops puts, up to 0.04 MB);
// TestPreparedEvalEpolBytesDoNotGrow holds that against the atom count.
func TestWarmEvalEpolAllocationCeiling(t *testing.T) {
	p, err := Prepare(testProblem(2000, 9), Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	eval := func() {
		if _, err := p.EvalEpol(Options{Threads: 1}); err != nil {
			t.Fatal(err)
		}
	}
	eval()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 10
	for i := 0; i < runs; i++ {
		eval()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	objects := float64(after.Mallocs-before.Mallocs) / runs
	t.Logf("warm 2000-atom EvalEpol: %.2f MB in %.0f objects", bytes/1e6, objects)
	if bytes > 1.5*0.33e6 {
		t.Errorf("warm EvalEpol allocates %.2f MB, ceiling %.2f MB", bytes/1e6, 1.5*0.33)
	}
	if objects > 1.5*149 {
		t.Errorf("warm EvalEpol allocates %.0f objects, ceiling %.0f", objects, 1.5*149)
	}
}
