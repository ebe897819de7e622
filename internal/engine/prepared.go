package engine

import (
	"time"

	"octgb/internal/core"
	"octgb/internal/molecule"
	"octgb/internal/sched"
	"octgb/internal/surface"
)

// Prepared is a fully preprocessed shared-memory problem: the sampled
// surface, both octrees with their per-node aggregates, and the effective
// Born radii — everything in Fig. 4 steps 1–4 that depends only on the
// molecule geometry, the surface sampling, and the Born-phase parameters.
// None of that changes across repeated energy evaluations, so a Prepared
// can be cached and re-evaluated with different E_pol parameters (ε_E,
// thread count) without re-sampling the surface or rebuilding
// the trees. This is the paper's §IV-C "octree construction as a
// preprocessing step", promoted to a first-class value; internal/serve
// keys an LRU of these by molecule content hash.
//
// Prepare also builds the E_pol solver for its own E_pol setting (ε_E)
// and, in the solver's storage, the dual E_pol interaction list
// (core.DualList): the Born-radius bins of Fig. 3 and the node pairs the
// traversal decides depend only on the tree, the charges, the Born radii
// and ε_E, so an EvalEpol at those settings only evaluates. An EvalEpol at
// other settings builds a solver for that call and traverses it once.
//
// A Prepared is immutable after Prepare and safe for concurrent EvalEpol
// calls: the octrees, the Born radii, both solvers and the held list are
// read-only after construction, and every evaluation has its own sums.
// A Prepared never releases its solvers (core's Release): one that is
// cached, or was, may still be read, and goes to the garbage collector.
type Prepared struct {
	// Pr is the underlying problem (molecule + sampled surface + charges).
	Pr *Problem
	// BornRadii are the effective Born radii in original atom order.
	BornRadii []float64
	// BornStats are the Born-phase treecode work counters.
	BornStats core.Stats
	// BornSched is the scheduler activity of the Born phase.
	BornSched sched.Stats

	bs   *core.BornSolver
	es   *core.EpolSolver // built at opts' E_pol settings
	dual *core.DualList   // es's held list, cut at dualRoots; Prepare's only
	opts Options          // prepare-time options, defaults resolved
}

// Prepare runs the preprocessing phase (steps 1–4: octree construction,
// Born integrals, Born radii) with the shared-memory engine and returns
// the reusable result. The Born-relevant fields of o (BornEps, LeafSize,
// CriterionPower, Threads) apply here; the E_pol fields
// are consumed later by EvalEpol.
func Prepare(pr *Problem, o Options) (*Prepared, error) {
	o = o.withDefaults(OctCilk)
	if err := o.Validate(); err != nil {
		return nil, err
	}
	p := prepareCilk(pr, o)
	p.dual = p.es.BuildDualList(p.dualRoots())
	recordSchedStats(o.Observe, p.BornSched)
	return p, nil
}

// NewProblemFromSurface bundles a molecule with an externally produced
// quadrature point set — the entry point for callers that compose or
// transform surfaces instead of sampling them (pose sweeps reuse the
// receptor's and ligand's cached point sets, see surface.ComposePose).
func NewProblemFromSurface(mol *molecule.Molecule, qpts []surface.QPoint) *Problem {
	return newProblem(mol, qpts)
}

// prepareCilk is the Born half of the shared-memory engine: steps 1–4 of
// Fig. 4 on one rank with a work-stealing pool, then the E_pol solver at
// o's E_pol settings. runCilkReal composes it with (*Prepared).evalEpol,
// so the cold path and the cached path sum the same roots in the same
// order; Prepare alone holds the list (see evalEpol).
func prepareCilk(pr *Problem, o Options) *Prepared {
	buildStart := time.Now()
	bs := core.NewBornSolver(pr.Mol, pr.QPts, o.bornConfig())
	observeBuild(o.Observe, buildStart, time.Since(buildStart))
	pool := sched.NewPool(o.Threads)
	n := pr.Mol.N()
	bornStart := time.Now()

	p := &Prepared{Pr: pr, bs: bs, opts: o}
	sNode, sAtom := bs.NewAccumulators()
	// The frontier pairs are the units of the phase: enough of them for the
	// pool to balance, each completed by streaming its part of the dual
	// traversal through the worker's tile.
	front, expand := bs.DualFrontier(32 * o.Threads)
	p.BornStats, p.BornSched = bornPhase(bs, pool, len(front), max(1, len(front)/(16*o.Threads)), sNode, sAtom,
		func(tile *core.InteractionList, lo, hi int, sNode, sAtom []float64) core.Stats {
			return bs.StreamBornDual(tile, front[lo:hi], sNode, sAtom)
		})
	p.BornStats.Add(expand)
	observePhase(o.Observe, "born", "engine.born", 0, bornStart, time.Since(bornStart))
	pushStart := time.Now()
	rTree := make([]float64, n)
	bs.PushIntegrals(sNode, sAtom, 0, int32(n), rTree)
	p.BornRadii = bs.RadiiToOriginal(rTree)
	observePhase(o.Observe, "push", "engine.push", 0, pushStart, time.Since(pushStart))
	p.es = p.newEpolSolver(o)
	return p
}

// dualRoots is how many roots the dual E_pol traversal is cut at: enough
// for the prepare-time pool to balance. It is fixed per Prepared, whatever
// Threads an evaluation asks for, so the roots — and the energy, which is
// summed root by root in root order — are the same for every evaluation,
// and an evaluation runs on at most that many workers.
func (p *Prepared) dualRoots() int { return 32 * p.opts.Threads }

// newEpolSolver builds the E_pol solver over the prepared tree, charges and
// Born radii at o's E_pol settings.
func (p *Prepared) newEpolSolver(o Options) *core.EpolSolver {
	return core.NewEpolSolver(p.bs.TA, p.Pr.Charges, p.BornRadii, o.epolConfig())
}

// epolSolver is the prepared solver when o asks for the E_pol settings it
// was built at, and a solver built for this call otherwise.
func (p *Prepared) epolSolver(o Options) *core.EpolSolver {
	if o.epolConfig() == p.opts.epolConfig() {
		return p.es
	}
	return p.newEpolSolver(o)
}

// EvalEpol evaluates the polarization energy (step 6) over the prebuilt
// trees and Born radii. o supplies only the evaluation-time knobs —
// EpolEps, Threads; the Born-phase fields are fixed
// at Prepare time and ignored here. The returned report echoes the
// prepared BornRadii/BornStats so warm and cold reports have the same
// shape; Wall covers only this evaluation.
//
// A cold RunReal(OctCilk) and Prepare+EvalEpol with the same options sum
// the same roots in the same order and produce bitwise-identical energies
// (see TestPreparedMatchesCold), and so do evaluations at any Threads. The
// roots are cut at Prepare, at 32 × the prepare-time Threads (a few more
// when the last pair split has several children), so an evaluation runs
// on at most that many workers: prepare at the Threads the evaluations
// will use.
func (p *Prepared) EvalEpol(o Options) (RealReport, error) {
	o = o.withDefaults(OctCilk)
	if err := o.Validate(); err != nil {
		return RealReport{}, err
	}
	start := time.Now()
	rep := p.evalEpol(o)
	rep.Wall = time.Since(start)
	// Record only this evaluation's scheduler activity: rep.Sched echoes
	// the prepare-phase stats (recorded by Prepare) for report-shape parity.
	recordSchedStats(o.Observe, sched.Stats{
		Executed:     rep.Sched.Executed - p.BornSched.Executed,
		Steals:       rep.Sched.Steals - p.BornSched.Steals,
		FailedSteals: rep.Sched.FailedSteals - p.BornSched.FailedSteals,
		Parks:        rep.Sched.Parks - p.BornSched.Parks,
	})
	return rep, nil
}

// evalEpol is the E_pol half of the shared-memory engine (defaults already
// resolved).
func (p *Prepared) evalEpol(o Options) RealReport {
	epolStart := time.Now()
	rep := RealReport{
		BornRadii: p.BornRadii,
		BornStats: p.BornStats,
	}
	es := p.epolSolver(o)
	if es != p.es {
		// Built for this call alone: its storage backs the next build.
		defer es.Release()
	}
	pool := sched.NewPool(o.Threads)
	// The roots are the units: each worker sums its roots' parts of the
	// traversal into their own slots, and the slots are added in root
	// order, so neither Threads nor stealing moves a bit.
	var (
		sums []float64
		s2   sched.Stats
	)
	if dual := p.dual; es == p.es && dual != nil {
		held := make([]float64, dual.Roots())
		s2 = pool.ParallelFor(len(held), max(1, len(held)/(16*o.Threads)), func(_, lo, hi int) {
			for r := lo; r < hi; r++ {
				seg := dual.Root(r)
				held[r], _ = es.EvalEpolList(&seg)
			}
		})
		sums, rep.EpolStats = held, dual.Stats()
	} else {
		// A traversal used once (other E_pol settings, a cold solve) is
		// not held: each root's part is built in the worker's lent tile,
		// inside the parallel region, with the held list's entries in the
		// held list's order.
		roots, expand := es.EpolDualFrontier(p.dualRoots())
		once := make([]float64, len(roots))
		tiles := newWorkerTiles(pool)
		statsW := make([]core.Stats, pool.Workers())
		s2 = pool.ParallelFor(len(roots), max(1, len(roots)/(16*o.Threads)), func(w, lo, hi int) {
			for r := lo; r < hi; r++ {
				var st core.Stats
				once[r], st = es.EvalEpolList(es.BuildDualRootInto(tiles.get(w), roots[r]))
				statsW[w].Add(st)
			}
		})
		tiles.release()
		sums, rep.EpolStats = once, expand
		for _, st := range statsW {
			rep.EpolStats.Add(st)
		}
	}
	var raw float64
	for _, e := range sums {
		raw += e
	}
	rep.Energy = raw * core.EnergyScale()
	rep.Sched = p.BornSched
	rep.Sched.Add(s2)
	observePhase(o.Observe, "epol", "engine.epol", 0, epolStart, time.Since(epolStart))
	return rep
}

// Options returns the prepare-time options with defaults resolved —
// callers use it to decide whether a cached Prepared is compatible with a
// new request's Born-phase parameters.
func (p *Prepared) Options() Options { return p.opts }

// MemoryBytes is the resident size of the Prepared — the figure the serving
// cache charges against its byte budget: the Born solver (both octrees and
// its payload streams), the E_pol solver's bins, row tables and held list,
// the molecule's atoms, the surface points, and the charge and radii
// vectors.
func (p *Prepared) MemoryBytes() int64 {
	const (
		atomBytes = 40 // Pos + Radius + Charge
		qptBytes  = 56 // Pos + Normal + Weight
	)
	return p.bs.MemoryBytes() + p.es.MemoryBytes() + int64(cap(p.Pr.Mol.Atoms))*atomBytes +
		int64(cap(p.Pr.QPts))*qptBytes + 8*int64(len(p.Pr.Charges)+len(p.BornRadii))
}
