package engine

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"octgb/internal/core"
	"octgb/internal/molecule"
	"octgb/internal/surface"
)

// solverDonor leaves released solvers in core.Free for the next
// builds to take: n Born solvers over mol and an E_pol solver over each.
// A Restrict copy's Release hands nothing back, so the "restricted" donor
// leaves core.Free empty.
type solverDonor struct {
	name       string
	mol        *molecule.Molecule
	qpts       []surface.QPoint
	restricted bool
}

func (d solverDonor) prime(n int) {
	core.Free.Drain()
	var bs []*core.BornSolver
	var es []*core.EpolSolver
	for i := 0; i < n; i++ {
		b := core.NewBornSolver(d.mol, d.qpts, core.BornConfig{})
		charges := make([]float64, d.mol.N())
		radii := make([]float64, d.mol.N())
		for j := range radii {
			charges[j], radii[j] = d.mol.Atoms[j].Charge, 1.5+0.01*float64(j%7)
		}
		bs, es = append(bs, b), append(es, core.NewEpolSolver(b.TA, charges, radii, core.EpolConfig{}))
	}
	for i := range bs {
		if d.restricted {
			es[i].Restrict(bs[i].TA.LeafIdx[:1]).Release()
			continue
		}
		es[i].Release()
		bs[i].Release()
	}
}

// solverDonors are the donors of the recycling tests, beside an empty list:
// a molecule of the same size, a larger and a smaller one, a one-atom
// molecule without q-points, and a Restrict copy, whose release is refused.
func solverDonors(atoms int) []solverDonor {
	sampled := func(name string, n int, seed int64) solverDonor {
		m := molecule.GenerateProtein(name, n, seed)
		return solverDonor{name: name, mol: m, qpts: surface.Sample(m, surface.Default())}
	}
	one := &molecule.Molecule{Name: "one", Atoms: []molecule.Atom{{Radius: 1.5, Charge: 0.4}}}
	restricted := sampled("restricted", atoms, 74)
	restricted.restricted = true
	return []solverDonor{
		sampled("same size", atoms, 71), sampled("larger", atoms*3/2, 72), sampled("smaller", atoms/2, 73),
		{name: "degenerate", mol: one, qpts: []surface.QPoint{}}, restricted,
	}
}

// sameReport fails unless two reports carry the same work counters and
// the same energy and radii: bit for bit when one thread per rank fixes the
// order of every addition, else to 1e-12, since the workers that steal
// chunks decide the order in which their partial sums are reduced.
func sameReport(t *testing.T, what string, threads int, got, want RealReport) {
	t.Helper()
	same := func(a, b float64) bool {
		if threads == 1 {
			return math.Float64bits(a) == math.Float64bits(b)
		}
		return math.Abs(a-b) <= 1e-12*math.Abs(b)
	}
	if !same(got.Energy, want.Energy) {
		t.Fatalf("%s: energy %.17g, fresh %.17g", what, got.Energy, want.Energy)
	}
	for i := range want.BornRadii {
		if !same(got.BornRadii[i], want.BornRadii[i]) {
			t.Fatalf("%s: radius %d is %.17g, fresh %.17g", what, i, got.BornRadii[i], want.BornRadii[i])
		}
	}
	if got.BornStats != want.BornStats || got.EpolStats != want.EpolStats {
		t.Fatalf("%s: stats %+v / %+v, fresh %+v / %+v", what, got.BornStats, got.EpolStats, want.BornStats, want.EpolStats)
	}
}

// TestRecycledSolversAreBitIdentical holds every path that builds and
// releases solvers to what it computes on an empty free list — bit for bit at
// one thread per rank — whatever donor the list holds: RunReal with
// OCT_MPI, OCT_MPI+CILK and OCT_CILK at 1–3 ranks and threads, Prepare +
// EvalEpol at the prepared and another ε_E, and 72-frame session streams
// that stay incremental (0.15 Å) and refresh the structure (0.6 Å).
func TestRecycledSolversAreBitIdentical(t *testing.T) {
	const atoms = 240
	mol := molecule.GenerateProtein("recycle-solvers", atoms, 70)
	pr := NewProblem(mol, surface.Default())
	type run struct {
		name    string
		threads int
		fn      func() []RealReport
	}
	var runs []run
	realRun := func(k Kind, o Options) run {
		return run{fmt.Sprintf("RunReal(%v, %d×%d)", k, o.Ranks, o.Threads), o.Threads, func() []RealReport {
			rep, err := RunReal(pr, k, o)
			if err != nil {
				t.Fatal(err)
			}
			return []RealReport{rep}
		}}
	}
	for _, n := range []int{1, 2, 3} {
		runs = append(runs, realRun(OctMPI, Options{Ranks: n, Threads: 1}), realRun(OctCilk, Options{Threads: n}))
		for _, m := range []int{1, 2, 3} {
			runs = append(runs, realRun(OctMPICilk, Options{Ranks: n, Threads: m}))
		}
	}
	runs = append(runs, run{"Prepare + EvalEpol", 1, func() []RealReport {
		p, err := Prepare(pr, Options{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		var reps []RealReport
		for _, eps := range []float64{0.9, 0.5, 0.9} {
			rep, err := p.EvalEpol(Options{Threads: 1, EpolEps: eps})
			if err != nil {
				t.Fatal(err)
			}
			reps = append(reps, rep)
		}
		return reps
	}})
	for _, amp := range []float64{0.15, 0.6} {
		frames := homeJitter(mol, 72, 10, amp, 75)
		runs = append(runs, run{fmt.Sprintf("session %.2f Å", amp), 1, func() []RealReport {
			ss, err := NewSession(mol, recycleOpts)
			if err != nil {
				t.Fatal(err)
			}
			e, _, refreshing := streamEnergies(t, ss, frames)
			if amp == 0.6 && refreshing == 0 {
				t.Fatal("the 0.6 Å stream never refreshed")
			}
			ss.Close()
			reps := make([]RealReport, len(e))
			for i := range e {
				reps[i].Energy = e[i]
			}
			return reps
		}})
	}

	donors := solverDonors(atoms)
	for _, r := range runs {
		core.Free.Drain()
		want := r.fn()
		for _, d := range donors {
			d.prime(3)
			got := r.fn()
			for i := range want {
				sameReport(t, fmt.Sprintf("%s, %s donor, result %d", r.name, d.name, i), r.threads, got[i], want[i])
			}
		}
	}
}

// coldSolveBytes is the heap one RunReal(OctMPICilk, 2 ranks × 1 thread)
// allocates, the solve of the repository benchmark's cold_solve.
func coldSolveBytes(t *testing.T, pr *Problem) uint64 {
	t.Helper()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	if _, err := RunReal(pr, OctMPICilk, Options{Ranks: 2, Threads: 1}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc
}

// TestColdSolveRecyclesSolvers: once a solve has released its solvers, the
// next one builds in their storage and allocates at most a quarter of what
// the first did.
func TestColdSolveRecyclesSolvers(t *testing.T) {
	pr := NewProblem(molecule.GenerateProtein("cold-recycle", 2000, 76), surface.Default())
	core.Free.Drain()
	fresh := coldSolveBytes(t, pr)
	recycled := coldSolveBytes(t, pr)
	t.Logf("RunReal: fresh %.2f MB, recycled %.2f MB", float64(fresh)/1e6, float64(recycled)/1e6)
	if recycled > fresh/4 {
		t.Errorf("a solve after a solve allocated %d bytes, the first %d: want at most a quarter", recycled, fresh)
	}
}

// BenchmarkColdSolve is the op of the repository benchmark's cold_solve
// workload — NewProblemParallel + RunReal(OctMPICilk, 2 ranks × 1 thread)
// on a 4 000-atom protein — reporting bytes and allocations per op.
// "fresh" drains core.Free before every op, so each builds its solvers in
// new storage; "recycled" builds them in the previous op's, an untimed
// first op having filled the free list.
func BenchmarkColdSolve(b *testing.B) {
	mol := molecule.GenerateProtein("cold", 4000, 77)
	op := func(b *testing.B) {
		pr := NewProblemParallel(mol, surface.Default(), 2)
		if _, err := RunReal(pr, OctMPICilk, Options{Ranks: 2, Threads: 1}); err != nil {
			b.Fatal(err)
		}
	}
	for _, recycle := range []bool{false, true} {
		name := "fresh"
		if recycle {
			name = "recycled"
		}
		b.Run(name, func(b *testing.B) {
			op(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !recycle {
					b.StopTimer()
					core.Free.Drain()
					b.StartTimer()
				}
				op(b)
			}
		})
	}
}
