package engine

import (
	"math/rand"

	"octgb/internal/core"
	"octgb/internal/gb"
	"octgb/internal/partition"
	"octgb/internal/sched"
	"octgb/internal/simtime"
)

// SimModel holds one engine's executed computation together with its
// deterministic work profile, from which virtual-time runs for any (P, p,
// machine) combination can be assembled cheaply. The algorithm runs exactly
// once (in Build); Time only does clock arithmetic, so sweeping core counts
// or repeating "runs" for min/max bands is inexpensive.
type SimModel struct {
	Kind Kind
	Opts Options

	Energy    float64
	BornRadii []float64 // original order
	BornStats core.Stats
	EpolStats core.Stats
	// BytesPerRank is the replicated per-rank working set (trees, payload
	// arrays, accumulators, bins) for the memory-pressure model.
	BytesPerRank int64

	prep *Prepared // problem, Born solver, radii and Born stats
	es   *core.EpolSolver
	oc   simtime.OpCosts

	bornLeafWork []float64 // per q-leaf seconds (node-based division)
	epolLeafWork []float64 // per atoms-leaf seconds
	pushVisits   int64     // full-tree push cost
	numAtoms     int
	numQPts      int
}

// SimTiming is the virtual-time result of one (engine, P, p) combination.
type SimTiming struct {
	TotalSec   float64
	ComputeSec float64
	CommSec    float64
	Cores      int
	MemPenalty float64
}

// BuildSimModel executes the engine's computation once and returns the work
// profile. It runs the engines' own traversals on one thread, so Energy is
// bit for bit the one-thread RunReal energy. The atom-based ablation
// re-executes the per-P traversals inside TimeAtomBased instead
// (boundaries change the computation).
func BuildSimModel(pr *Problem, k Kind, o Options, oc simtime.OpCosts) *SimModel {
	o = o.withDefaults(k)
	sm := &SimModel{Kind: k, Opts: o, oc: oc, numAtoms: pr.Mol.N(), numQPts: len(pr.QPts)}

	if k == Naive {
		sm.BornRadii = gb.BornRadiiR6(pr.Mol, pr.QPts)
		sm.Energy = gb.EpolNaive(pr.Mol, sm.BornRadii)
		n, m := int64(sm.numAtoms), int64(sm.numQPts)
		sm.BornStats = core.Stats{NearPairs: n * m}
		sm.EpolStats = core.Stats{NearPairs: n * n}
		sm.BytesPerRank = n*48 + m*56
		return sm
	}

	rTree := make([]float64, sm.numAtoms)
	if k == OctCilk {
		// Steps 1–4 of the shared-memory engine. Only totals are needed
		// (the intra-node makespan is modeled from work/span); the push
		// visits every node in range whatever the sums are, so its count
		// is taken again on fresh accumulators.
		sm.prep = prepareCilk(pr, oneThread(o))
		sNode, sAtom := sm.prep.bs.NewAccumulators()
		sm.pushVisits = sm.prep.bs.PushIntegrals(sNode, sAtom, 0, int32(sm.numAtoms), rTree)
	} else {
		// Step 2 of the leaf-driven engines, one q-leaf at a time into one
		// pair of accumulators: the per-leaf work profile.
		bs := core.NewBornSolver(pr.Mol, pr.QPts, o.bornConfig())
		sm.prep = &Prepared{Pr: pr, bs: bs, opts: o}
		sNode, sAtom := bs.NewAccumulators()
		var tile core.InteractionList
		sm.bornLeafWork = make([]float64, bs.NumQLeaves())
		for l := range sm.bornLeafWork {
			st := bs.StreamBornLeaves(&tile, l, l+1, sNode, sAtom)
			sm.bornLeafWork[l] = oc.BornWork(st)
			sm.prep.BornStats.Add(st)
		}
		sm.pushVisits = bs.PushIntegrals(sNode, sAtom, 0, int32(sm.numAtoms), rTree)
		sm.prep.BornRadii = bs.RadiiToOriginal(rTree)
		sm.prep.es = sm.prep.newEpolSolver(o)
	}
	sm.BornRadii, sm.BornStats = sm.prep.BornRadii, sm.prep.BornStats

	sm.runEpol()
	ta, tq := sm.prep.bs.TA, sm.prep.bs.TQ
	sm.BytesPerRank = ta.MemoryBytes() + tq.MemoryBytes() +
		8*int64(len(ta.Nodes)+2*sm.numAtoms) +
		8*int64(len(ta.Nodes))*int64(sm.es.NumBins())
	return sm
}

// oneThread is o for a model run: one thread, no instrumentation.
func oneThread(o Options) Options {
	o.Threads, o.Observe = 1, nil
	return o
}

// runEpol runs step 6 at sm.Opts over the model's Born radii with the
// engine's own traversal on one thread — (*Prepared).evalEpol for
// OCT_CILK, StreamEpolLeaves one driver leaf at a time into one
// accumulator for the leaf-driven kinds — and sets Energy, EpolStats and
// the per-leaf work. The solver stays for the memory model and
// DistributeData.
func (sm *SimModel) runEpol() {
	p := sm.prep
	sm.es = p.epolSolver(sm.Opts)
	if sm.Kind == OctCilk {
		rep := p.evalEpol(oneThread(sm.Opts))
		sm.Energy, sm.EpolStats = rep.Energy, rep.EpolStats
		return
	}
	es := sm.es
	var tile core.InteractionList
	var raw float64
	sm.EpolStats = core.Stats{}
	sm.epolLeafWork = make([]float64, es.NumLeaves())
	for l := range sm.epolLeafWork {
		st := es.StreamEpolLeaves(&tile, l, l+1, &raw)
		sm.epolLeafWork[l] = sm.oc.EpolWork(st)
		sm.EpolStats.Add(st)
	}
	sm.Energy = raw * core.EnergyScale()
}

// EpolLeafWork returns a copy of the measured per-leaf energy-phase work
// profile in modeled seconds (empty for the dual-tree and naive kinds) —
// used by scheduling ablations.
func (sm *SimModel) EpolLeafWork() []float64 {
	return append([]float64(nil), sm.epolLeafWork...)
}

// WithEpolEps returns a new SimModel sharing this model's Born phase
// (solver, radii, per-leaf work) but with the energy treecode re-run at a
// different ε — the cheap path for the paper's Figure 10 sweep, where the
// Born ε stays fixed while the E_pol ε varies.
func (sm *SimModel) WithEpolEps(eps float64) *SimModel {
	if sm.Kind == Naive {
		return sm
	}
	out := *sm
	out.Opts.EpolEps = eps
	out.runEpol()
	return &out
}

// ranksPerNode returns how many ranks share one modeled node.
func ranksPerNode(P, threads int, m simtime.Machine) int {
	rpn := m.CoresPerNode / threads
	if rpn < 1 {
		rpn = 1
	}
	if P < rpn {
		rpn = P
	}
	return rpn
}

// jitterer returns a deterministic noise function: amp=0 or seed<0 yields
// the identity. Each call consumes one random draw.
func jitterer(seed int64) func(base, amp float64) float64 {
	if seed < 0 {
		return func(base, _ float64) float64 { return base }
	}
	rng := rand.New(rand.NewSource(seed))
	return func(base, amp float64) float64 {
		return base * (1 + amp*rng.Float64())
	}
}

// Time assembles the virtual-time run for P ranks × threads on machine m.
// seed < 0 gives the noise-free deterministic run; seed ≥ 0 adds bounded
// deterministic jitter (compute ±few %, collectives up to +50 %) so
// repeated "runs" produce the min/max bands of the paper's Figure 6. The
// hybrid engine gets a larger compute-jitter amplitude than pure MPI,
// reflecting the work-stealing execution variance the paper observes.
func (sm *SimModel) Time(P, threads int, m simtime.Machine, seed int64) SimTiming {
	switch sm.Kind {
	case OctCilk, Naive:
		P = 1
	case OctMPI:
		threads = 1
	}
	if P < 1 {
		P = 1
	}
	if threads < 1 {
		threads = 1
	}
	jit := jitterer(seed)
	computeAmp := 0.03
	if threads > 1 {
		computeAmp = 0.08
	}

	rpn := ranksPerNode(P, threads, m)
	pen := m.MemoryPenalty(sm.BytesPerRank, rpn)
	overhead := 1.0
	if threads > 1 {
		overhead = m.HybridOverhead
	}

	clocks := simtime.NewClocks(P)
	var comm float64
	// sync charges one collective (AlgoCollectiveCost matches what
	// cluster/collectives.go executes).
	sync := func(kind string, words int) {
		c := jit(m.AlgoCollectiveCost(kind, words, P, rpn), 0.5)
		var max float64
		for _, t := range clocks.T {
			if t > max {
				max = t
			}
		}
		for i := range clocks.T {
			clocks.T[i] = max + c
		}
		comm += c
	}

	// Phase 2: Born integrals (node-based q-leaf segments).
	switch sm.Kind {
	case Naive:
		total := sm.oc.BornWork(sm.BornStats) * pen
		clocks.Advance(0, jit(total/float64(threads), computeAmp))
	case OctCilk:
		total := sm.oc.BornWork(sm.BornStats) * pen * overheadFor(threads, m)
		clocks.Advance(0, jit(total/float64(threads), computeAmp))
	default:
		segs := sm.leafSegments(sm.bornLeafWork, P)
		for r := 0; r < P; r++ {
			w := sm.bornLeafWork[segs[r].Lo:segs[r].Hi]
			t := sched.ListScheduleMakespan(w, threads)*overhead*pen +
				m.StealOverheadSec*float64(len(w))/float64(threads)
			clocks.Advance(r, jit(t, computeAmp))
		}
		// Phase 3: Allreduce of partial integrals (s_A and its gradient per
		// node + s_a per atom).
		sync("allreduce", 4*len(sm.prep.bs.TA.Nodes)+sm.numAtoms)
	}

	// Phase 4: push integrals to atoms (atom segments).
	pushPer := float64(sm.pushVisits) * sm.oc.NodeVisitSec * pen / float64(P*threads)
	for r := 0; r < P; r++ {
		clocks.Advance(r, jit(pushPer, computeAmp))
	}
	// Phase 5: Allgather Born radii.
	if sm.Kind != OctCilk && sm.Kind != Naive {
		sync("allgatherv", sm.numAtoms)
	}

	// Phase 6: energy (node-based leaf segments).
	switch sm.Kind {
	case Naive:
		total := sm.oc.EpolWork(sm.EpolStats) * pen
		clocks.Advance(0, jit(total/float64(threads), computeAmp))
	case OctCilk:
		total := sm.oc.EpolWork(sm.EpolStats) * pen * overheadFor(threads, m)
		clocks.Advance(0, jit(total/float64(threads), computeAmp))
	default:
		segs := sm.leafSegments(sm.epolLeafWork, P)
		for r := 0; r < P; r++ {
			w := sm.epolLeafWork[segs[r].Lo:segs[r].Hi]
			t := sched.ListScheduleMakespan(w, threads)*overhead*pen +
				m.StealOverheadSec*float64(len(w))/float64(threads)
			clocks.Advance(r, jit(t, computeAmp))
		}
		// Phase 7: reduce partial energies.
		sync("allreduce", 1)
	}

	total := clocks.Elapsed()
	return SimTiming{
		TotalSec:   total,
		ComputeSec: total - comm,
		CommSec:    comm,
		Cores:      P * threads,
		MemPenalty: pen,
	}
}

// leafSegments cuts the leaf list into P contiguous rank segments — by
// count (the paper's scheme) or by measured work when WeightedStatic is
// set (the future-work extension).
func (sm *SimModel) leafSegments(work []float64, P int) []partition.Segment {
	if sm.Opts.WeightedStatic {
		return partition.WeightedEven(work, P)
	}
	return partition.Even(len(work), P)
}

func overheadFor(threads int, m simtime.Machine) float64 {
	if threads > 1 {
		return m.HybridOverhead
	}
	return 1
}

// TimeAtomBased re-executes the traversals with ATOM-BASED division for P
// ranks (the work depends on the boundaries) and returns both the timing
// and the energy, which — unlike node-based division — varies with P.
func (sm *SimModel) TimeAtomBased(P, threads int, m simtime.Machine) (SimTiming, float64) {
	if sm.Kind == Naive || sm.Kind == OctCilk {
		return sm.Time(P, threads, m, -1), sm.Energy
	}
	if P < 1 {
		P = 1
	}
	if threads < 1 {
		threads = 1
	}
	bs := sm.prep.bs
	n := sm.numAtoms
	rpn := ranksPerNode(P, threads, m)
	pen := m.MemoryPenalty(sm.BytesPerRank, rpn)
	overhead := overheadFor(threads, m)

	clocks := simtime.NewClocks(P)
	var comm float64
	sync := func(kind string, words int) {
		c := m.AlgoCollectiveCost(kind, words, P, rpn)
		var max float64
		for _, t := range clocks.T {
			if t > max {
				max = t
			}
		}
		for i := range clocks.T {
			clocks.T[i] = max + c
		}
		comm += c
	}

	atomSegs := partition.Even(n, P)
	sNode, sAtom := bs.NewAccumulators()
	for r := 0; r < P; r++ {
		lo, hi := int32(atomSegs[r].Lo), int32(atomSegs[r].Hi)
		var st core.Stats
		for l := 0; l < bs.NumQLeaves(); l++ {
			st.Add(bs.AccumulateQLeafAtomRange(l, lo, hi, sNode, sAtom))
		}
		clocks.Advance(r, sm.oc.BornWork(st)/float64(threads)*overhead*pen)
	}
	sync("allreduce", 4*len(bs.TA.Nodes)+n)

	rTree := make([]float64, n)
	for r := 0; r < P; r++ {
		v := bs.PushIntegrals(sNode, sAtom, int32(atomSegs[r].Lo), int32(atomSegs[r].Hi), rTree)
		clocks.Advance(r, float64(v)*sm.oc.NodeVisitSec/float64(threads)*pen)
	}
	sync("allgatherv", n)

	R := bs.RadiiToOriginal(rTree)
	es := core.NewEpolSolver(bs.TA, sm.prep.Pr.Charges, R, sm.Opts.epolConfig())
	var raw float64
	for r := 0; r < P; r++ {
		lo, hi := int32(atomSegs[r].Lo), int32(atomSegs[r].Hi)
		var st core.Stats
		for l := 0; l < es.NumLeaves(); l++ {
			e, s := es.LeafEnergyRows(l, lo, hi)
			raw += e
			st.Add(s)
		}
		clocks.Advance(r, sm.oc.EpolWork(st)/float64(threads)*overhead*pen)
	}
	sync("allreduce", 1)

	total := clocks.Elapsed()
	return SimTiming{
		TotalSec:   total,
		ComputeSec: total - comm,
		CommSec:    comm,
		Cores:      P * threads,
		MemPenalty: pen,
	}, raw * core.EnergyScale()
}
