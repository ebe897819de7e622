package engine

import (
	"fmt"
	"math"
	"testing"

	"octgb/internal/cluster"
	"octgb/internal/core"
	"octgb/internal/gb"
	"octgb/internal/molecule"
	"octgb/internal/simtime"
	"octgb/internal/surface"
	"octgb/internal/testutil"
)

func testProblem(n int, seed int64) *Problem {
	m := molecule.GenerateProtein("eng", n, seed)
	return NewProblem(m, surface.Default())
}

func relErr(a, b float64) float64 {
	return math.Abs(a-b) / math.Max(1e-30, math.Abs(b))
}

func TestKindString(t *testing.T) {
	if OctCilk.String() != "OCT_CILK" || OctMPI.String() != "OCT_MPI" ||
		OctMPICilk.String() != "OCT_MPI+CILK" || Naive.String() != "Naive" {
		t.Error("kind names wrong")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults(OctMPICilk)
	if o.Ranks != 1 || o.Threads != 1 || o.BornEps != 0.9 || o.EpolEps != 0.9 {
		t.Errorf("defaults: %+v", o)
	}
	if o := (Options{Ranks: 4, Threads: 6}).withDefaults(OctMPI); o.Threads != 1 {
		t.Error("OctMPI must force 1 thread")
	}
	if o := (Options{Ranks: 4}).withDefaults(OctCilk); o.Ranks != 1 {
		t.Error("OctCilk must force 1 rank")
	}
}

func TestAllEnginesAgreeOnEnergy(t *testing.T) {
	pr := testProblem(700, 41)
	naive, err := RunReal(pr, Naive, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		k Kind
		o Options
	}{
		{OctCilk, Options{Threads: 3}},
		{OctMPI, Options{Ranks: 4}},
		{OctMPICilk, Options{Ranks: 2, Threads: 3}},
	} {
		rep, err := RunReal(pr, tc.k, tc.o)
		if err != nil {
			t.Fatalf("%v: %v", tc.k, err)
		}
		if e := relErr(rep.Energy, naive.Energy); e > 0.05 {
			t.Errorf("%v energy %v vs naive %v (rel %v)", tc.k, rep.Energy, naive.Energy, e)
		}
		if rep.Energy >= 0 {
			t.Errorf("%v: non-negative E_pol %v", tc.k, rep.Energy)
		}
	}
}

// TestDistributedIndependentOfRankCount: node-based division (§IV-A) makes
// the result independent of the decomposition. The set of evaluated
// interactions — every mutual leaf block at the one leaf that owns it
// included — is fixed by the trees alone, so the work counters summed over
// ranks repeat exactly and the energy moves only by reassociation in the
// reduce, for any P × Threads, on the in-process and the TCP transport, and
// in the distributed-data engine, whose ranks hold NaN for every atom they
// neither own nor were sent: a finite energy there means no rank evaluated
// a block it did not have both sides of.
func TestDistributedIndependentOfRankCount(t *testing.T) {
	defer testutil.Watchdog(t, 0)()
	pr := testProblem(500, 42)
	base, err := RunReal(pr, OctMPI, Options{Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T, energy float64, born, epol core.Stats) {
		t.Helper()
		if e := relErr(energy, base.Energy); e > 1e-12 || math.IsNaN(energy) {
			t.Errorf("energy %v differs from P=1 %v (rel %v)", energy, base.Energy, e)
		}
		if born != base.BornStats || epol != base.EpolStats {
			t.Errorf("stats %+v / %+v, P=1 %+v / %+v", born, epol, base.BornStats, base.EpolStats)
		}
	}
	for _, p := range []int{1, 2, 3, 5, 8} {
		for _, threads := range []int{1, 3} {
			t.Run(fmt.Sprintf("local/%dx%d", p, threads), func(t *testing.T) {
				rep, err := RunReal(pr, OctMPICilk, Options{Ranks: p, Threads: threads})
				if err != nil {
					t.Fatal(err)
				}
				check(t, rep.Energy, rep.BornStats, rep.EpolStats)
			})
			t.Run(fmt.Sprintf("tcp/%dx%d", p, threads), func(t *testing.T) {
				reps := make([]RealReport, p)
				overTCP(t, p, func(c cluster.Comm, rank int) error {
					rep, err := RunRank(c, pr, Options{Threads: threads})
					reps[rank] = rep
					return err
				})
				var born, epol core.Stats
				for _, rep := range reps {
					born.Add(rep.BornStats)
					epol.Add(rep.EpolStats)
				}
				for _, rep := range reps {
					check(t, rep.Energy, born, epol)
				}
			})
		}
		t.Run(fmt.Sprintf("distributed-data/%d", p), func(t *testing.T) {
			e, err := RunDistributedDataEnergy(pr, p, Options{})
			if err != nil {
				t.Fatal(err)
			}
			check(t, e, base.BornStats, base.EpolStats)
		})
	}
}

func TestHybridMatchesDistributed(t *testing.T) {
	// Same algorithm, different intra-rank execution: results must agree
	// to reduction-order noise.
	pr := testProblem(500, 43)
	a, err := RunReal(pr, OctMPI, Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunReal(pr, OctMPICilk, Options{Ranks: 2, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(a.Energy, b.Energy); e > 1e-9 {
		t.Errorf("hybrid %v vs distributed %v (rel %v)", b.Energy, a.Energy, e)
	}
}

func TestSimModelMatchesRealEnergy(t *testing.T) {
	pr := testProblem(500, 44)
	oc := simtime.DefaultOpCosts()
	for _, k := range []Kind{OctMPI, OctMPICilk, OctCilk, Naive} {
		sm := BuildSimModel(pr, k, Options{}, oc)
		rep, err := RunReal(pr, k, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if e := relErr(sm.Energy, rep.Energy); e > 1e-9 {
			t.Errorf("%v: sim energy %v vs real %v", k, sm.Energy, rep.Energy)
		}
	}
}

// TestSimModelEnergyIsOneThreadRealBits: the model runs the engines' own
// traversals on one thread, so its energy — and that of WithEpolEps — is
// bit for bit the one-thread RunReal energy of every octree kind.
func TestSimModelEnergyIsOneThreadRealBits(t *testing.T) {
	oc := simtime.DefaultOpCosts()
	for _, n := range []int{300, 2000} {
		pr := testProblem(n, 47)
		for _, k := range []Kind{OctCilk, OctMPI, OctMPICilk} {
			sm := BuildSimModel(pr, k, Options{Threads: 3}, oc)
			for _, eps := range []float64{0.9, 0.5} {
				rep, err := RunReal(pr, k, Options{Threads: 1, EpolEps: eps})
				if err != nil {
					t.Fatal(err)
				}
				got := sm
				if eps != sm.Opts.EpolEps {
					got = sm.WithEpolEps(eps)
				}
				if got.Energy != rep.Energy || got.EpolStats != rep.EpolStats || got.BornStats != rep.BornStats {
					t.Errorf("n=%d %v ε=%v: sim %.17g %+v %+v, one-thread real %.17g %+v %+v", n, k, eps,
						got.Energy, got.BornStats, got.EpolStats, rep.Energy, rep.BornStats, rep.EpolStats)
				}
			}
		}
	}
}

func TestSimTimeScalesWithCores(t *testing.T) {
	pr := testProblem(3000, 45)
	m := simtime.Lonestar4()
	sm := BuildSimModel(pr, OctMPI, Options{}, simtime.DefaultOpCosts())
	t1 := sm.Time(1, 1, m, -1)
	t12 := sm.Time(12, 1, m, -1)
	if t12.TotalSec >= t1.TotalSec {
		t.Errorf("12 ranks (%v s) not faster than 1 (%v s)", t12.TotalSec, t1.TotalSec)
	}
	sp := t1.TotalSec / t12.TotalSec
	if sp < 3 || sp > 12 {
		t.Errorf("12-rank speedup %v implausible", sp)
	}
	if t12.CommSec <= 0 {
		t.Error("no communication time charged for 12 ranks")
	}
	if t1.CommSec != 0 {
		t.Error("communication charged for single rank")
	}
}

func TestSimHybridVsMPIShapes(t *testing.T) {
	// The paper's qualitative claims: (a) pure MPI replicates data, so its
	// per-node footprint penalty is ≥ the hybrid's; (b) with many ranks
	// MPI pays more communication than the hybrid at equal core count.
	pr := testProblem(4000, 46)
	m := simtime.Lonestar4()
	oc := simtime.DefaultOpCosts()
	mpi := BuildSimModel(pr, OctMPI, Options{}, oc)
	hyb := BuildSimModel(pr, OctMPICilk, Options{}, oc)

	cores := 144
	tm := mpi.Time(cores, 1, m, -1)
	th := hyb.Time(cores/6, 6, m, -1)
	if tm.Cores != cores || th.Cores != cores {
		t.Fatalf("core accounting: %d vs %d", tm.Cores, th.Cores)
	}
	if th.CommSec >= tm.CommSec {
		t.Errorf("hybrid comm %v not below MPI comm %v at %d cores", th.CommSec, tm.CommSec, cores)
	}
	if th.MemPenalty > tm.MemPenalty {
		t.Errorf("hybrid memory penalty %v exceeds MPI %v", th.MemPenalty, tm.MemPenalty)
	}
}

func TestSimJitterBounded(t *testing.T) {
	pr := testProblem(1000, 47)
	m := simtime.Lonestar4()
	sm := BuildSimModel(pr, OctMPI, Options{}, simtime.DefaultOpCosts())
	base := sm.Time(8, 1, m, -1).TotalSec
	min, max := math.Inf(1), 0.0
	for seed := int64(0); seed < 20; seed++ {
		v := sm.Time(8, 1, m, seed).TotalSec
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if min < base*0.999 {
		t.Errorf("jittered run faster than noise-free base: %v < %v", min, base)
	}
	if max > base*1.6 {
		t.Errorf("jitter exploded: %v vs base %v", max, base)
	}
	if min == max {
		t.Error("jitter produced no variance")
	}
}

func TestAtomBasedDivisionEnergyVariesWithP(t *testing.T) {
	// The paper's §IV-A observation: atom-based division error changes
	// with the number of processes; node-based stays constant.
	pr := testProblem(800, 48)
	m := simtime.Lonestar4()
	sm := BuildSimModel(pr, OctMPI, Options{}, simtime.DefaultOpCosts())

	_, e2 := sm.TimeAtomBased(2, 1, m)
	_, e5 := sm.TimeAtomBased(5, 1, m)
	if e2 == e5 {
		t.Error("atom-based energies identical across P (expected boundary-dependent)")
	}
	// Both still close to the node-based energy.
	for _, e := range []float64{e2, e5} {
		if relErr(e, sm.Energy) > 0.05 {
			t.Errorf("atom-based energy %v too far from node-based %v", e, sm.Energy)
		}
	}
}

func TestNaiveParallelRowsMatchSerial(t *testing.T) {
	pr := testProblem(300, 49)
	a, err := RunReal(pr, Naive, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunReal(pr, Naive, Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(a.Energy, b.Energy); e > 1e-10 {
		t.Errorf("parallel naive %v vs serial %v", b.Energy, a.Energy)
	}
	// Cross-check against the gb reference.
	R := gb.BornRadiiR6(pr.Mol, pr.QPts)
	want := gb.EpolNaive(pr.Mol, R)
	if e := relErr(a.Energy, want); e > 1e-12 {
		t.Errorf("naive engine %v vs gb reference %v", a.Energy, want)
	}
}

func TestSimTimeAtomBasedSlowerOrEqual(t *testing.T) {
	// Paper: "atom-node work division takes slightly more time than the
	// purely node based division".
	pr := testProblem(1500, 50)
	m := simtime.Lonestar4()
	sm := BuildSimModel(pr, OctMPI, Options{}, simtime.DefaultOpCosts())
	node := sm.Time(6, 1, m, -1)
	atom, _ := sm.TimeAtomBased(6, 1, m)
	if atom.TotalSec < node.TotalSec*0.95 {
		t.Errorf("atom-based (%v) much faster than node-based (%v)", atom.TotalSec, node.TotalSec)
	}
}

func TestPhaseTimingsRecorded(t *testing.T) {
	pr := testProblem(400, 53)
	rep, err := RunReal(pr, OctMPI, Options{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := rep.Phases
	if p.Born <= 0 || p.Push <= 0 || p.Epol <= 0 {
		t.Errorf("phase timings missing: %+v", p)
	}
	total := p.Born + p.Push + p.Epol + p.Comm
	if total > rep.Wall*2 {
		t.Errorf("phase sum %v exceeds wall %v", total, rep.Wall)
	}
}

func TestWeightedStaticNeverSlower(t *testing.T) {
	// Work-weighted static division cannot lose to count-based division
	// by more than noise, and should win on skewed inputs.
	m := molecule.GenerateComplex("ws", 2500, 400, 52)
	pr := NewProblem(m, surface.Default())
	oc := simtime.DefaultOpCosts()
	count := BuildSimModel(pr, OctMPI, Options{}, oc)
	weighted := BuildSimModel(pr, OctMPI, Options{WeightedStatic: true}, oc)
	if count.Energy != weighted.Energy {
		t.Errorf("balancing changed the energy: %v vs %v", count.Energy, weighted.Energy)
	}
	mch := simtime.Lonestar4()
	for _, P := range []int{4, 16} {
		tc := count.Time(P, 1, mch, -1).TotalSec
		tw := weighted.Time(P, 1, mch, -1).TotalSec
		if tw > tc*1.05 {
			t.Errorf("P=%d: weighted split slower (%v vs %v)", P, tw, tc)
		}
	}
}

func TestProblemConstruction(t *testing.T) {
	pr := testProblem(200, 51)
	if len(pr.Charges) != 200 || len(pr.QPts) == 0 {
		t.Fatalf("problem: %d charges, %d qpts", len(pr.Charges), len(pr.QPts))
	}
	if pr.Charges[5] != pr.Mol.Atoms[5].Charge {
		t.Error("charges extraction wrong")
	}
}

// TestLeafDrivenEnergyWithinOnePercent is the paper's accuracy contract on
// the molecules the benchmark solves: OCT_MPI and OCT_MPI+CILK stay within
// 1 % of the exact quadratic sum on deck molecule 0 of cmd/bench's
// cold_solve at 4 000 atoms, for three seeds. The bench checks one seed per
// run; this holds the contract in `go test`. The figures are 0.37 / 0.41 /
// 0.55 % and only a change to the interaction set can move them. OCT_CILK's
// dual energy traversal accepts far pairs before it looks for leaves and
// reads above 1 % on these molecules (ROADMAP item 8); it is logged, not
// asserted.
func TestLeafDrivenEnergyWithinOnePercent(t *testing.T) {
	if testing.Short() {
		t.Skip("three 4000-atom naive references")
	}
	for _, seed := range []int64{23, 24, 31} {
		pr := NewProblem(molecule.GenerateProtein("cold-0", 4000, seed*1000), surface.Default())
		naive, err := RunReal(pr, Naive, Options{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		errOf := func(k Kind, o Options) float64 {
			rep, err := RunReal(pr, k, o)
			if err != nil {
				t.Fatal(err)
			}
			return relErr(rep.Energy, naive.Energy)
		}
		mpi := errOf(OctMPI, Options{Ranks: 2})
		hybrid := errOf(OctMPICilk, Options{Ranks: 2, Threads: 2})
		t.Logf("seed %d: OCT_MPI %.4f %%, OCT_MPI+CILK %.4f %%, OCT_CILK %.4f %% (not asserted)",
			seed, 100*mpi, 100*hybrid, 100*errOf(OctCilk, Options{Threads: 2}))
		if mpi > 0.01 || hybrid > 0.01 {
			t.Errorf("seed %d: OCT_MPI %.4f %%, OCT_MPI+CILK %.4f %% off naive, contract 1 %%", seed, 100*mpi, 100*hybrid)
		}
	}
}
