package engine

import (
	"fmt"
	"time"

	"octgb/internal/cluster"
	"octgb/internal/core"
	"octgb/internal/gb"
	"octgb/internal/obs"
	"octgb/internal/partition"
	"octgb/internal/sched"
)

// RealReport is the result of a genuinely executed parallel run.
type RealReport struct {
	Energy    float64
	BornRadii []float64 // original order
	Wall      time.Duration
	BornStats core.Stats
	// EpolStats counts the energy-phase work as performed (core.Stats): for
	// OCT_MPI and OCT_MPI+CILK every driver leaf's far cells and one-sided
	// exact blocks plus each mutual exact block once, at the leaf that owns
	// it (core's blockWeight); for OCT_CILK's symmetric dual traversal each
	// unordered node pair once. Neither depends on Ranks or Threads.
	EpolStats core.Stats
	Sched     sched.Stats // aggregated work-stealing statistics
	Phases    PhaseTimings
}

// PhaseTimings is rank 0's wall-clock breakdown of one run, matching the
// phases of the paper's Fig. 4.
type PhaseTimings struct {
	Born time.Duration // steps 1–2: Born integrals
	Push time.Duration // step 4: push integrals to atoms
	Epol time.Duration // step 6: energy traversal
	Comm time.Duration // steps 3, 5, 7: collectives
}

// RunReal executes the engine with real parallelism: o.Ranks in-process
// communicator ranks (goroutines) each driving a work-stealing pool of
// o.Threads workers. Wall time is measured. Note: in-process ranks share
// the immutable octrees (the trees are read-only after construction);
// genuine per-process replication is available through cmd/epolnode's TCP
// ranks. Results are identical either way — sharing affects only memory.
func RunReal(pr *Problem, k Kind, o Options) (RealReport, error) {
	o = o.withDefaults(k)
	if err := o.Validate(); err != nil {
		return RealReport{}, err
	}
	start := time.Now()

	var rep RealReport
	switch k {
	case Naive:
		rep = runNaiveReal(pr, o)
	case OctCilk:
		rep = runCilkReal(pr, o)
	default:
		r, err := runDistributedReal(pr, o)
		if err != nil {
			return RealReport{}, err
		}
		rep = r
	}
	rep.Wall = time.Since(start)
	recordSchedStats(o.Observe, rep.Sched)
	return rep, nil
}

// runNaiveReal evaluates the exact reference, parallelized over atoms.
func runNaiveReal(pr *Problem, o Options) RealReport {
	pool := sched.NewPool(o.Threads)
	n := pr.Mol.N()
	R := gb.BornRadiiR6(pr.Mol, pr.QPts)
	var rep RealReport
	rep.BornRadii = R
	rep.BornStats = core.Stats{NearPairs: int64(n) * int64(len(pr.QPts))}
	partial := make([]float64, pool.Workers())
	tau := gb.Tau(gb.SolventDielectric)
	rep.Sched = pool.ParallelFor(n, 0, func(w, lo, hi int) {
		var sum float64
		for i := lo; i < hi; i++ {
			ai := &pr.Mol.Atoms[i]
			sum += ai.Charge * ai.Charge / R[i]
			for j := i + 1; j < n; j++ {
				aj := &pr.Mol.Atoms[j]
				sum += 2 * gb.PairTerm(ai.Charge, aj.Charge, ai.Pos.Dist2(aj.Pos), R[i], R[j])
			}
		}
		partial[w] += sum
	})
	var raw float64
	for _, p := range partial {
		raw += p
	}
	rep.Energy = -0.5 * tau * gb.CoulombConstant * raw
	rep.EpolStats = core.Stats{NearPairs: int64(n) * int64(n)}
	return rep
}

// workerTiles lends each worker of one parallel region an interaction-list
// tile to fill and evaluate through: the Born phase, a one-shot dual E_pol
// traversal and a rank's step 6. A worker takes one from core.Free on its
// first chunk and release hands them back, so a later region reuses the
// tiles earlier ones grew. Every fill resets its tile first; no state
// crosses calls.
type workerTiles []*core.InteractionList

func newWorkerTiles(pool *sched.Pool) workerTiles { return make(workerTiles, pool.Workers()) }

// get is worker w's tile, taken on its first call. A tile's storage grows
// with the work it is lent for, not with a build, so any tile fits.
func (t workerTiles) get(w int) *core.InteractionList {
	if t[w] == nil {
		t[w] = core.Take[core.InteractionList](&core.Free, 0)
	}
	return t[w]
}

// release hands the tiles taken back to core.Free.
func (t workerTiles) release() {
	for _, tile := range t {
		if tile != nil {
			core.Free.Put(tile, 0, tile.MemoryBytes())
		}
	}
}

// bornPhase is the Born phase of one rank (Fig. 4 step 2): the n units of
// its traversal — q-leaves of the rank's segment, or dual-tree frontier
// pairs — are divided over the pool, and run completes the units [lo, hi)
// into the accumulators it is handed, through the worker's lent tile.
// Building a unit's interactions is part of run, so it happens inside the
// parallel region. Worker 0 accumulates straight into sNode/sAtom and the
// other workers' private accumulators are reduced into them afterwards; a
// pool runs its chunks in ascending order on one worker, which makes
// Threads == 1 the serial evaluation, addition for addition.
func bornPhase(bs *core.BornSolver, pool *sched.Pool, n, grain int, sNode, sAtom []float64,
	run func(tile *core.InteractionList, lo, hi int, sNode, sAtom []float64) core.Stats) (core.Stats, sched.Stats) {
	accN := make([][]float64, pool.Workers())
	accA := make([][]float64, pool.Workers())
	accN[0], accA[0] = sNode, sAtom
	tiles := newWorkerTiles(pool)
	statsW := make([]core.Stats, pool.Workers())
	st := pool.ParallelFor(n, grain, func(w, lo, hi int) {
		if accN[w] == nil {
			accN[w], accA[w] = bs.NewAccumulators()
		}
		statsW[w].Add(run(tiles.get(w), lo, hi, accN[w], accA[w]))
	})
	tiles.release()
	total := statsW[0]
	for w := 1; w < len(accN); w++ {
		if accN[w] == nil {
			continue
		}
		for i := range sNode {
			sNode[i] += accN[w][i]
		}
		for i := range sAtom {
			sAtom[i] += accA[w][i]
		}
		total.Add(statsW[w])
	}
	return total, st
}

// runCilkReal executes the dual-tree algorithm with one rank and a
// work-stealing pool over the dual-tree frontier (the Born lists streamed
// through SoA kernels, the E_pol list held and evaluated). It is the
// composition of the preprocessing half (prepareCilk: trees, Born radii
// and the E_pol list) and the evaluation half ((*Prepared).evalEpol) — the
// same two halves the serving layer runs separately around its
// prepared-problem cache, so the cold path and the cached path are one
// code path (see prepared.go).
//
// The Prepared never escapes, so its solvers go back to core.Free once
// the energy is in: the next cold solve builds in their storage.
func runCilkReal(pr *Problem, o Options) RealReport {
	p := prepareCilk(pr, o)
	rep := p.evalEpol(o)
	p.es.Release()
	p.bs.Release()
	return rep
}

// RunRank executes one rank of the Fig. 4 algorithm over an arbitrary
// communicator — the entry point for genuine multi-process deployments
// (cmd/epolnode): every process loads the same inputs, builds its own
// octrees (step 1, replicated data as in the paper), and calls RunRank.
func RunRank(c cluster.Comm, pr *Problem, o Options) (RealReport, error) {
	o = o.withDefaults(OctMPICilk)
	o.Ranks = c.Size()
	buildStart := time.Now()
	bs := core.NewBornSolver(pr.Mol, pr.QPts, o.bornConfig())
	observeBuild(o.Observe, buildStart, time.Since(buildStart))
	rep, err := runRank(c, bs, pr, o)
	bs.Release()
	if err == nil {
		recordSchedStats(o.Observe, rep.Sched)
	}
	return rep, err
}

// runDistributedReal executes OCT_MPI (Threads == 1) or OCT_MPI+CILK over
// in-process communicator ranks, following the paper's Fig. 4 step by step.
func runDistributedReal(pr *Problem, o Options) (RealReport, error) {
	// Step 1: octrees. Built once; immutable thereafter (in-process ranks
	// share them, see RunReal doc).
	buildStart := time.Now()
	bs := core.NewBornSolver(pr.Mol, pr.QPts, o.bornConfig())
	observeBuild(o.Observe, buildStart, time.Since(buildStart))
	P := o.Ranks

	results := make([]RealReport, P)
	g := cluster.NewLocalGroup(P, nil).WithObserver(o.Observe)
	err := g.Run(func(c cluster.Comm) error {
		rep, err := runRank(c, bs, pr, o)
		if err != nil {
			return err
		}
		results[c.Rank()] = rep
		return nil
	})
	// Run has waited for every rank, so none can still read the solver.
	bs.Release()
	if err != nil {
		return RealReport{}, err
	}

	// Aggregate stats across ranks; energy/radii identical on all ranks.
	out := results[0]
	for _, r := range results[1:] {
		out.BornStats.Add(r.BornStats)
		out.EpolStats.Add(r.EpolStats)
		out.Sched.Add(r.Sched)
	}
	if out.BornRadii == nil {
		return out, fmt.Errorf("engine: no result produced")
	}
	return out, nil
}

// runRank is the per-rank body of the paper's Fig. 4 (steps 2–7).
func runRank(c cluster.Comm, bs *core.BornSolver, pr *Problem, o Options) (RealReport, error) {
	n := pr.Mol.N()
	P := c.Size()
	rank := c.Rank()
	pool := sched.NewPool(o.Threads)
	var rep RealReport
	po := newPhaseObs(o.Observe, rank)
	mark := time.Now()
	// lap closes one phase segment: the duration since the previous lap is
	// added to dst and — with an observer attached — recorded as a phase
	// histogram observation and a child span of the rank's root span. name
	// is always a constant, so the observability-off path builds no strings.
	lap := func(dst *time.Duration, h *obs.Histogram, name string) {
		now := time.Now()
		d := now.Sub(mark)
		*dst += d
		po.record(h, name, mark, d)
		mark = now
	}

	// Step 2: approximated integrals for this rank's q-leaf segment,
	// streamed through per-worker tiles.
	sNode, sAtom := bs.NewAccumulators()
	seg := partition.ForRank(bs.NumQLeaves(), P, rank)
	rep.BornStats, rep.Sched = bornPhase(bs, pool, seg.Len(), 0, sNode, sAtom,
		func(tile *core.InteractionList, lo, hi int, sNode, sAtom []float64) core.Stats {
			return bs.StreamBornLeaves(tile, seg.Lo+lo, seg.Lo+hi, sNode, sAtom)
		})
	lap(&rep.Phases.Born, po.born, "engine.born")

	// Step 3: gather partial integrals (MPI_Allreduce). Both reductions are
	// initiated before either is waited on, so the sNode exchange overlaps
	// the sAtom one instead of serializing behind it.
	rNode := c.IAllreduceSum(sNode)
	rAtom := c.IAllreduceSum(sAtom)
	if err := rNode.Wait(); err != nil {
		return rep, err
	}
	if err := rAtom.Wait(); err != nil {
		return rep, err
	}
	lap(&rep.Phases.Comm, po.comm, "engine.comm")

	// Step 4: Born radii for this rank's atom segment.
	aseg := partition.ForRank(n, P, rank)
	rTree := make([]float64, n)
	bs.PushIntegrals(sNode, sAtom, int32(aseg.Lo), int32(aseg.Hi), rTree)
	lap(&rep.Phases.Push, po.push, "engine.push")

	// Step 5: gather Born radii of the other segments.
	counts := make([]int, P)
	for r := 0; r < P; r++ {
		counts[r] = partition.ForRank(n, P, r).Len()
	}
	rFull := make([]float64, n)
	if err := c.Allgatherv(rTree[aseg.Lo:aseg.Hi], counts, rFull); err != nil {
		return rep, err
	}
	rep.BornRadii = bs.RadiiToOriginal(rFull)
	lap(&rep.Phases.Comm, po.comm, "engine.comm")

	// Step 6: partial energy for this rank's leaf segment, streamed like
	// step 2: each chunk of driver leaves is traversed and evaluated through
	// its worker's lent tile; one worker's chunks are the serial sum bit
	// for bit.
	es := core.NewEpolSolver(bs.TA, pr.Charges, rep.BornRadii, o.epolConfig())
	lseg := partition.ForRank(es.NumLeaves(), P, rank)
	tiles := newWorkerTiles(pool)
	partial := make([]float64, pool.Workers())
	statsW := make([]core.Stats, pool.Workers())
	rep.Sched.Add(pool.ParallelFor(lseg.Len(), 0, func(w, lo, hi int) {
		statsW[w].Add(es.StreamEpolLeaves(tiles.get(w), lseg.Lo+lo, lseg.Lo+hi, &partial[w]))
	}))
	tiles.release()
	es.Release()
	var raw float64
	for w := range partial {
		raw += partial[w]
		rep.EpolStats.Add(statsW[w])
	}
	lap(&rep.Phases.Epol, po.epol, "engine.epol")

	// Step 7: accumulate partial energies.
	ebuf := []float64{raw}
	if err := c.AllreduceSum(ebuf); err != nil {
		return rep, err
	}
	lap(&rep.Phases.Comm, po.comm, "engine.comm")
	rep.Energy = ebuf[0] * core.EnergyScale()
	po.finish("engine.rank")
	return rep, nil
}
