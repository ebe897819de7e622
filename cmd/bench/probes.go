package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"octgb/internal/cluster"
	"octgb/internal/core"
	"octgb/internal/engine"
	"octgb/internal/fabric"
	"octgb/internal/geom"
	"octgb/internal/molecule"
	"octgb/internal/obs"
	"octgb/internal/octree"
	"octgb/internal/sched"
	"octgb/internal/surface"
)

// microReps is the call count of a sub-millisecond probe; its metric is
// the mean over the batch (a single call is below the clock's resolution).
const microReps = 2000

// probeInput is what the layer probes replay: the workload's
// representative molecule, plus the docking pair when the workload has one.
type probeInput struct {
	mol      *molecule.Molecule
	rec, lig *molecule.Molecule
	pose     geom.Rigid
}

// prober times calls into one module's public functions and records an op
// span with one stage span per call.
type prober struct {
	sp   *spanner
	reps int
}

// timed runs fn once per repeat and returns the median milliseconds.
func (p *prober) timed(name string, fn func()) float64 {
	var t []float64
	for i := 0; i < p.reps; i++ {
		start := time.Now()
		fn()
		d := time.Since(start)
		t = append(t, ms(d))
		p.sp.op("probe."+name, 0, start, d, stage{name, start, d})
	}
	return median(t)
}

// micro runs fn microReps times and returns the mean nanoseconds per call.
func (p *prober) micro(name string, fn func()) float64 {
	start := time.Now()
	for i := 0; i < microReps; i++ {
		fn()
	}
	d := time.Since(start)
	p.sp.op("probe."+name, 0, start, d, stage{name, start, d})
	return float64(d.Nanoseconds()) / microReps
}

// probeLayers measures every layer through its public functions on the
// workload's representative input and emits the per-layer metrics. The
// waterfall replay is the serial cold path cut at every module boundary;
// engine.waterfall_cover says how much of the engine's own serial solve
// those stages account for.
func probeLayers(m *metricSet, in probeInput, cfg *config, ob *obs.Observer, sp *spanner, res *passResult) error {
	p := &prober{sp: sp, reps: cfg.sz.probeN}
	mol := in.mol
	surf := surface.Default()

	// molecule
	m.set("molecule.hash_us", "us", p.micro("molecule.hash", func() { mol.Hash() })/1e3, microReps)

	// Waterfall replay, interleaved with the engine's own serial solve of
	// the same molecule so both see the same machine state; a collection
	// before each keeps one repeat's garbage out of the next.
	var wf waterfall
	stageMS := map[string][]float64{}
	var replayMS, serialMS []float64
	for i := 0; i < p.reps; i++ {
		runtime.GC()
		wf = replayWaterfall(mol, surf, sp)
		var solve float64
		for _, st := range wf.stages {
			stageMS[st.name] = append(stageMS[st.name], ms(st.dur))
			if st.name != "surface.sample" {
				solve += ms(st.dur)
			}
		}
		replayMS = append(replayMS, solve)
		// The engine's solve starts from the heap the replay's did: a
		// collection, then one surface sampling's worth of fresh garbage.
		runtime.GC()
		pr := engine.NewProblem(mol, surf)
		start := time.Now()
		if _, err := engine.RunReal(pr, engine.OctCilk, engine.Options{Threads: 1, Observe: ob}); err != nil {
			return err
		}
		d := time.Since(start)
		sp.op("probe.engine.serial", 0, start, d, stage{"engine.serial", start, d})
		serialMS = append(serialMS, ms(d))
	}
	med := func(name string) float64 { return median(stageMS[name]) }
	apos := make([]geom.Vec3, mol.N())
	for i := range mol.Atoms {
		apos[i] = mol.Atoms[i].Pos
	}
	qpos := surface.Positions(wf.qpts)
	buildA := p.timed("octree.build_atoms", func() { octree.Build(apos, 0) })
	buildQ := p.timed("octree.build_qpts", func() { octree.Build(qpos, 0) })

	m.set("surface.sample_ms", "ms", med("surface.sample"), p.reps)
	m.set("surface.qpoints", "count", float64(len(wf.qpts)), 1)
	m.set("octree.build_atoms_ms", "ms", buildA, p.reps)
	m.set("octree.build_qpts_ms", "ms", buildQ, p.reps)
	m.set("octree.nodes", "count", float64(len(wf.bs.TA.Nodes)+len(wf.bs.TQ.Nodes)), 1)
	m.set("core.born_setup_ms", "ms", med("core.born_setup"), p.reps) // includes both tree builds
	m.set("core.born_list_ms", "ms", med("core.born_list"), p.reps)
	m.set("core.born_eval_ms", "ms", med("core.born_eval"), p.reps)
	m.set("core.push_ms", "ms", med("core.push"), p.reps)
	m.set("core.born_near_pairs", "count", float64(wf.born.NearPairs), 1)
	m.set("core.born_far_evals", "count", float64(wf.born.FarEval), 1)
	m.set("core.born_mpairs_per_s", "1/s", float64(wf.born.NearPairs)/1e3/med("core.born_eval"), p.reps)
	m.set("core.epol_setup_ms", "ms", med("core.epol_setup"), p.reps)
	m.set("core.epol_list_ms", "ms", med("core.epol_list"), p.reps)
	m.set("core.epol_eval_ms", "ms", med("core.epol_eval"), p.reps)
	m.set("core.epol_near_pairs", "count", float64(wf.epol.NearPairs), 1)
	m.set("core.epol_far_evals", "count", float64(wf.epol.FarEval), 1)
	m.set("core.epol_mpairs_per_s", "1/s", float64(wf.epol.NearPairs)/1e3/med("core.epol_eval"), p.reps)

	// octree refit: one frame's worth of point moves, then the refit.
	frames := jitterFrames(mol, 8, cfg.sz.streamMovers, cfg.seed*1000+300)
	inv := wf.bs.TA.InvPerm()
	refit := p.timed("octree.refit", func() {
		for _, mv := range frames[0].Moves {
			wf.bs.TA.SetPoint(inv[mv.Index], mv.Pos)
		}
		wf.bs.TA.RefitAll()
	})
	m.set("octree.refit_us", "us", 1e3*refit, p.reps)

	// surface composition (docking pair only)
	if in.rec != nil {
		recQ, ligQ := surface.Sample(in.rec, surf), surface.Sample(in.lig, surf)
		pc := surface.NewPoseComposer(in.rec, recQ, in.lig, ligQ, surf, nil)
		var cerr error
		compose := p.timed("surface.compose", func() { _, _, cerr = pc.Compose("probe", in.pose) })
		if cerr != nil {
			return fmt.Errorf("compose probe: %w", cerr)
		}
		m.set("surface.compose_us", "us", 1e3*compose, p.reps)
	}

	// engine: the four programs on one pre-sampled problem, and the
	// serving split of the shared-memory one.
	pr := engine.NewProblemFromSurface(mol, wf.qpts)
	run := func(name string, k engine.Kind, o engine.Options) (float64, engine.RealReport, error) {
		var rep engine.RealReport
		var err error
		o.Observe = ob
		t := p.timed(name, func() { rep, err = engine.RunReal(pr, k, o) })
		return t, rep, err
	}
	ranks, threads := hybridShape(cfg.p)
	octcilk, shared, err := run("engine.octcilk", engine.OctCilk, engine.Options{Threads: cfg.p})
	if err != nil {
		return err
	}
	octmpi, _, err := run("engine.octmpi", engine.OctMPI, engine.Options{Ranks: cfg.p})
	if err != nil {
		return err
	}
	hyb, hybrid, err := run("engine.hybrid", engine.OctMPICilk, engine.Options{Ranks: ranks, Threads: threads})
	if err != nil {
		return err
	}
	m.set("engine.serial_ms", "ms", median(serialMS), p.reps)
	m.set("engine.octcilk_ms", "ms", octcilk, p.reps)
	m.set("engine.octmpi_ms", "ms", octmpi, p.reps)
	m.set("engine.hybrid_ms", "ms", hyb, p.reps)
	// The paper's speed-up: the plain single-threaded program over the
	// hybrid one on P cores. Withheld on one core, where it would be a
	// time-slicing artefact.
	if cfg.p >= 2 {
		m.set("engine.par_speedup", "x", median(serialMS)/hyb, p.reps)
	}
	m.set("engine.phase_born_ms", "ms", ms(hybrid.Phases.Born), 1)
	m.set("engine.phase_push_ms", "ms", ms(hybrid.Phases.Push), 1)
	m.set("engine.phase_epol_ms", "ms", ms(hybrid.Phases.Epol), 1)
	m.set("cluster.comm_ms", "ms", ms(hybrid.Phases.Comm), 1) // program-reported, rank 0
	// Scheduler activity of the P-thread shared-memory solve (the hybrid
	// engine at P = 2 runs one thread per rank and never steals).
	m.set("sched.tasks", "count", float64(shared.Sched.Executed), 1)
	m.set("sched.steals", "count", float64(shared.Sched.Steals), 1)
	m.set("sched.failed_steals", "count", float64(shared.Sched.FailedSteals), 1)
	m.set("sched.parks", "count", float64(shared.Sched.Parks), 1)

	// Cover is the median of per-repeat ratios: a replay and the solve next
	// to it ran at the same machine speed, which on a shared box drifts by
	// tens of percent within a second.
	ratios := make([]float64, p.reps)
	for i := range ratios {
		sample := stageMS["surface.sample"][i]
		ratios[i] = (replayMS[i] + sample) / (serialMS[i] + sample)
	}
	cover := median(ratios)
	m.set("engine.waterfall_cover", "ratio", cover, p.reps)
	// Outside the band the waterfall is not an account of the solve — but
	// that is a verdict on this measurement, not on the program's outputs,
	// so it warns instead of failing the run (the package test asserts it).
	if cover < 0.90 || cover > 1.10 {
		fmt.Fprintf(os.Stderr, "bench: WARNING: waterfall stages cover %.3f of the serial solve, want 0.90–1.10\n", cover)
	}

	var prep *engine.Prepared
	prepare := p.timed("engine.prepare", func() { prep, err = engine.Prepare(pr, engine.Options{Threads: 1, Observe: ob}) })
	if err != nil {
		return err
	}
	var warm engine.RealReport
	evalEpol := p.timed("engine.eval_epol", func() { warm, err = prep.EvalEpol(engine.Options{Threads: 1, Observe: ob}) })
	if err != nil {
		return err
	}
	m.set("engine.prepare_ms", "ms", prepare, p.reps)
	m.set("engine.evalepol_ms", "ms", evalEpol, p.reps)
	m.set("engine.prepared_mb", "MB", float64(prep.MemoryBytes())/1e6, 1)

	// Accuracy at the stated time: the treecode energy against the exact
	// quadratic sum on the same surface.
	naive, err := engine.RunReal(pr, engine.Naive, engine.Options{Threads: cfg.p})
	if err != nil {
		return err
	}
	relErr := math.Abs(hybrid.Energy-naive.Energy) / math.Abs(naive.Energy)
	m.set("engine.energy_rel_err", "ratio", relErr, 1)
	if relErr > naiveTol {
		res.Invalid = append(res.Invalid, fmt.Sprintf("probe molecule: |E-E_naive|/|E_naive| = %.4g > %g", relErr, naiveTol))
	}
	if d := math.Abs(warm.Energy-wf.energy) / math.Abs(wf.energy); d > refTol {
		res.Invalid = append(res.Invalid, fmt.Sprintf("waterfall replay energy %.12g differs from Prepare+EvalEpol %.12g", wf.energy, warm.Energy))
	}

	if err := probeSession(m, p, mol, frames); err != nil {
		return err
	}

	// sched, cluster, fabric, obs micro-probes
	pool := sched.NewPool(cfg.p)
	m.set("sched.parallel_for_us", "us", p.micro("sched.parallel_for", func() {
		pool.ParallelFor(1024, 0, func(int, int, int) {})
	})/1e3, microReps)
	gather, reduce, err := probeCollectives(p, mol.N())
	if err != nil {
		return err
	}
	m.set("cluster.allgatherv_us", "us", gather, microReps/10)
	m.set("cluster.allreduce_us", "us", reduce, microReps/10)

	ring := fabric.NewRing(0)
	ring.Add("w0")
	ring.Add("w1")
	key := fabric.KeyHash(mol.Hash())
	m.set("fabric.ring_lookup_ns", "ns", p.micro("fabric.ring_lookup", func() { ring.Owners(key, fabric.DefaultReplicas) }), microReps)
	h := obs.NewRegistry().Histogram("bench_probe_seconds", "", "probe")
	m.set("obs.hist_observe_ns", "ns", p.micro("obs.hist_observe", func() { h.Observe(time.Millisecond) }), microReps)
	return nil
}

// waterfall is one serial cold solve cut at the module boundaries.
type waterfall struct {
	stages     []stage
	qpts       []surface.QPoint
	bs         *core.BornSolver
	born, epol core.Stats
	energy     float64
}

// replayWaterfall is the serial cold path of engine.RunReal(OctCilk) spelt
// out through the public functions it is built from, each call timed as
// one stage of one op span.
func replayWaterfall(mol *molecule.Molecule, surf surface.Options, sp *spanner) waterfall {
	var wf waterfall
	opStart := time.Now()
	mark := opStart
	lap := func(name string) {
		now := time.Now()
		wf.stages = append(wf.stages, stage{name, mark, now.Sub(mark)})
		mark = now
	}
	wf.qpts = surface.Sample(mol, surf)
	lap("surface.sample")
	bs := core.NewBornSolver(mol, wf.qpts, core.BornConfig{Eps: 0.9})
	lap("core.born_setup")
	sNode, sAtom := bs.NewAccumulators()
	list := bs.BuildBornDualList()
	lap("core.born_list")
	bs.EvalBornList(list, sNode, sAtom)
	lap("core.born_eval")
	n := mol.N()
	rTree := make([]float64, n)
	bs.PushIntegrals(sNode, sAtom, 0, int32(n), rTree)
	radii := bs.RadiiToOriginal(rTree)
	lap("core.push")
	charges := make([]float64, n)
	for i := range mol.Atoms {
		charges[i] = mol.Atoms[i].Charge
	}
	es := core.NewEpolSolver(bs.TA, charges, radii, core.EpolConfig{Eps: 0.9})
	lap("core.epol_setup")
	elist := es.BuildEpolDualList()
	lap("core.epol_list")
	raw, _ := es.EvalEpolList(elist)
	lap("core.epol_eval")
	sp.op("probe.waterfall", 0, opStart, mark.Sub(opStart), wf.stages...)
	wf.bs, wf.born, wf.epol = bs, list.Stats(), elist.Stats()
	wf.energy = raw * core.EnergyScale()
	return wf
}

// probeSession times the incremental path through engine.Session: create
// (and what it allocates), the median incremental step, and a forced full
// resweep.
func probeSession(m *metricSet, p *prober, mol *molecule.Molecule, frames []engine.FrameDelta) error {
	// Two sessions are needed — the default one and the resweep-every-frame
	// one — and a create costs several solves' time, so those two creates
	// are the create samples.
	var sessions [2]*engine.Session
	var createMS, allocMB []float64
	for i, every := range []int{0, 1} { // 0 = default cadence; 1 = every step is the full resweep
		so := engine.SessionOptions{Surf: surface.Default(), Eval: engine.Options{Threads: 1}, ResweepEvery: every}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		ss, err := engine.NewSession(mol, so)
		d := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			return err
		}
		p.sp.op("probe.engine.session_create", 0, start, d, stage{"engine.session_create", start, d})
		sessions[i] = ss
		createMS = append(createMS, ms(d))
		allocMB = append(allocMB, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
	}
	m.set("engine.session_create_ms", "ms", median(createMS), len(createMS))
	m.set("engine.session_create_alloc_mb", "MB", median(allocMB), len(allocMB))

	var step, resweep, dirty, rederived []float64
	for _, fr := range frames {
		start := time.Now()
		rep, err := sessions[0].Step(fr)
		if err != nil {
			return err
		}
		d := time.Since(start)
		p.sp.op("probe.engine.session_step", 0, start, d, stage{"engine.session_step", start, d})
		step = append(step, ms(d))
		dirty = append(dirty, float64(rep.DirtyBornRows))
		rederived = append(rederived, float64(rep.Rederived))
	}
	for _, fr := range frames[:min(p.reps, len(frames))] {
		start := time.Now()
		if _, err := sessions[1].Step(fr); err != nil {
			return err
		}
		d := time.Since(start)
		p.sp.op("probe.engine.session_resweep", 0, start, d, stage{"engine.session_resweep", start, d})
		resweep = append(resweep, ms(d))
	}
	m.set("engine.session_step_ms", "ms", median(step), len(step))
	m.set("engine.session_resweep_ms", "ms", median(resweep), len(resweep))
	m.set("engine.session_dirty_rows", "count", median(dirty), len(dirty))
	m.set("engine.session_rederived", "count", median(rederived), len(rederived))
	return nil
}

// probeCollectives times the two collectives the engine issues per solve at
// the engine's payload sizes — an N-word allgatherv (Born radii) and a
// one-word allreduce (the energy) — over two in-process ranks. Returns
// microseconds per collective.
func probeCollectives(p *prober, n int) (gather, reduce float64, err error) {
	const reps = microReps / 10
	counts := []int{n / 2, n - n/2}
	var gatherT, reduceT time.Duration
	start := time.Now()
	err = cluster.RunLocal(2, nil, func(c cluster.Comm) error {
		seg := make([]float64, counts[c.Rank()])
		out := make([]float64, n)
		one := []float64{1}
		t := time.Now()
		for i := 0; i < reps; i++ {
			if err := c.Allgatherv(seg, counts, out); err != nil {
				return err
			}
		}
		mid := time.Now()
		for i := 0; i < reps; i++ {
			if err := c.AllreduceSum(one); err != nil {
				return err
			}
		}
		if c.Rank() == 0 {
			gatherT, reduceT = mid.Sub(t), time.Since(mid)
		}
		return nil
	})
	d := time.Since(start)
	p.sp.op("probe.cluster.collectives", 0, start, d, stage{"cluster.collectives", start, d})
	return float64(gatherT.Microseconds()) / reps, float64(reduceT.Microseconds()) / reps, err
}
