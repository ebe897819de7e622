package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"octgb/internal/engine"
	"octgb/internal/geom"
	"octgb/internal/molecule"
	"octgb/internal/surface"
)

// composeScratchPool recycles the composed-surface scratch (translated
// ligand octree + q-point buffer) across batch flushes. The scratch is
// molecule independent, so a batch for any receptor/ligand pair can reuse
// storage left behind by another; without the pool every flush reallocated
// it from scratch. Scratch is checked back in only after the batch's last
// pose — the q-points handed to each per-pose Problem alias it.
var composeScratchPool = sync.Pool{
	New: func() any { return &surface.ComposeScratch{} },
}

// sweepWaiter is one /v1/sweep request parked in a pending batch.
type sweepWaiter struct {
	ctx      context.Context
	reqID    string
	poses    []geom.Rigid
	queuedAt time.Time
	span     uint64            // request root span ID (0 with observability off)
	out      chan sweepOutcome // buffered; the batch runner never blocks on it
}

// sweepOutcome is one waiter's share of a batch run.
type sweepOutcome struct {
	energies      []float64
	deltas        []float64
	eRec, eLig    float64
	cache         string
	batchRequests int
	batchPoses    int
	startedAt     time.Time
	surfaceMS     float64
	prepareMS     float64
	evalMS        float64
	err           error
}

// pendingSweep is a batch being coalesced: every waiter shares the same
// receptor/ligand content and options (the batch key guarantees it), so
// the receptor and ligand are prepared once and each pose only pays for
// its own complex.
type pendingSweep struct {
	key     string
	rec     *molecule.Molecule // nil for receptor-free sweeps
	lig     *molecule.Molecule
	opts    evalOpts
	exact   bool
	timer   *time.Timer // window flush; stopped when Shutdown flushes early
	waiters []*sweepWaiter
}

// sweepKey identifies a coalescible batch: both molecules' content hashes
// plus every parameter that shapes the evaluation.
func sweepKey(rec, lig *molecule.Molecule, o evalOpts, exact bool) string {
	recHash := "-"
	if rec != nil {
		recHash = rec.HashString()
	}
	return fmt.Sprintf("%s|%s|b%g|e%g|s%d|d%d|r%g|x%v",
		recHash, lig.HashString(), o.bornEps, o.epolEps,
		o.surf.SubdivLevel, o.surf.Degree, o.surf.RadiusScale, exact)
}

// enqueueSweep parks the waiter on the batch for its key, opening the
// batch (and arming its flush timer) if it is the first arrival.
func (s *Server) enqueueSweep(rec, lig *molecule.Molecule, o evalOpts, exact bool, wt *sweepWaiter) {
	key := sweepKey(rec, lig, o, exact)
	s.pendingMu.Lock()
	b, ok := s.pending[key]
	if !ok {
		b = &pendingSweep{key: key, rec: rec, lig: lig, opts: o, exact: exact}
		s.pending[key] = b
		// The window is the tuner's knob, sampled when the batch opens:
		// wider windows coalesce more under load, narrower ones cap the
		// latency a lone sweep pays waiting for company.
		b.timer = time.AfterFunc(s.batchWindow(), func() { s.flushSweep(key) })
	}
	b.waiters = append(b.waiters, wt)
	s.pendingMu.Unlock()
}

// flushAllPending closes every open batch window immediately — the
// Shutdown path, where waiting out BatchWindow would stall the drain (and,
// with a long window, leave armed timers firing after the workers are
// gone). Stopping the timer first makes the flush single-shot in the
// common case; a timer that already fired is harmless because flushSweep
// is idempotent (the second call finds no pending entry).
func (s *Server) flushAllPending() {
	s.pendingMu.Lock()
	keys := make([]string, 0, len(s.pending))
	for key, b := range s.pending {
		if b.timer != nil {
			b.timer.Stop()
		}
		keys = append(keys, key)
	}
	s.pendingMu.Unlock()
	for _, key := range keys {
		s.flushSweep(key)
	}
}

// flushSweep closes the batch window for key and hands the batch to the
// worker pool. Its requests were already admitted, so a full queue blocks
// the flush goroutine rather than rejecting; if the server stopped in the
// meantime every waiter is failed (their handlers are gone by then anyway
// — Shutdown drains handlers before stopping workers).
func (s *Server) flushSweep(key string) {
	s.pendingMu.Lock()
	b := s.pending[key]
	delete(s.pending, key)
	s.pendingMu.Unlock()
	if b == nil {
		return
	}
	if !s.submitBatch(func() { s.runSweep(b) }) {
		for _, wt := range b.waiters {
			wt.out <- sweepOutcome{err: errDraining}
		}
	}
}

// runSweep executes one coalesced batch on a worker: prepare the receptor
// and ligand through the cache once, evaluate their isolated energies
// once, then score every waiter's poses. By default each pose's complex
// surface is composed from the cached parts (surface.PoseComposer); the
// octrees and Born radii of the complex are rebuilt per pose because they
// depend on the merged geometry.
func (s *Server) runSweep(b *pendingSweep) {
	started := time.Now()
	totalPoses := 0
	for _, wt := range b.waiters {
		totalPoses += len(wt.poses)
	}
	s.metrics.batchesRun.Inc()
	s.metrics.batchedRequests.Add(int64(len(b.waiters)))
	s.metrics.batchedPoses.Add(int64(totalPoses))

	fail := func(err error) {
		for _, wt := range b.waiters {
			wt.out <- sweepOutcome{err: err, startedAt: started}
		}
	}

	// Shared preprocessing: ligand (always) and receptor (if present)
	// through the prepared cache, plus their isolated energies for deltas.
	eo := s.engineOpts(b.opts)
	ligB, ligSrc, err := s.cache.get(cacheKey(b.lig.HashString(), b.opts), func() (*built, error) {
		return s.buildPrepared(b.lig, b.opts)
	})
	if err != nil {
		fail(fmt.Errorf("prepare ligand: %w", err))
		return
	}
	ligRep, err := ligB.prep.EvalEpol(eo)
	if err != nil {
		fail(fmt.Errorf("ligand energy: %w", err))
		return
	}
	cache := "ligand:" + string(ligSrc)
	var recB *built
	var eRec float64
	if b.rec != nil {
		var recSrc cacheSource
		recB, recSrc, err = s.cache.get(cacheKey(b.rec.HashString(), b.opts), func() (*built, error) {
			return s.buildPrepared(b.rec, b.opts)
		})
		if err != nil {
			fail(fmt.Errorf("prepare receptor: %w", err))
			return
		}
		recRep, err := recB.prep.EvalEpol(eo)
		if err != nil {
			fail(fmt.Errorf("receptor energy: %w", err))
			return
		}
		eRec = recRep.Energy
		cache = "receptor:" + string(recSrc) + " " + cache
	}

	// One composer per batch: the receptor octree and the base-pose ligand
	// octree are built once here instead of once per pose, over pooled
	// scratch that survives across flushes.
	var pc *surface.PoseComposer
	if b.rec != nil && !b.exact {
		sc := composeScratchPool.Get().(*surface.ComposeScratch)
		defer composeScratchPool.Put(sc)
		pc = surface.NewPoseComposer(b.rec, recB.prep.Pr.QPts, b.lig, ligB.prep.Pr.QPts, b.opts.surf, sc)
	}

	for _, wt := range b.waiters {
		out := sweepOutcome{
			eRec:          eRec,
			eLig:          ligRep.Energy,
			cache:         cache,
			batchRequests: len(b.waiters),
			batchPoses:    totalPoses,
			startedAt:     started,
		}
		out.energies = make([]float64, 0, len(wt.poses))
		if b.rec != nil {
			out.deltas = make([]float64, 0, len(wt.poses))
		}
		for _, pose := range wt.poses {
			if wt.ctx.Err() != nil {
				s.metrics.canceled.Inc()
				out.err = wt.ctx.Err()
				break
			}
			e, tm, err := s.evalPose(b, pc, pose)
			if err != nil {
				out.err = err
				break
			}
			out.surfaceMS += tm.SurfaceMS
			out.prepareMS += tm.PrepareMS
			out.evalMS += tm.EvalMS
			out.energies = append(out.energies, e)
			if b.rec != nil {
				out.deltas = append(out.deltas, e-eRec-ligRep.Energy)
			}
		}
		wt.out <- out
	}
	s.metrics.stage(s.metrics.batch, "serve.batch", 0, started, time.Since(started))
}

// evalPose scores one pose: assemble the complex (composed or re-sampled
// surface), run the Born phase, evaluate E_pol. pc is the batch's cached
// composer (nil for receptor-free or exact sweeps); a pose it rejects for
// carrying a rotation falls back to the exact Merge + full-sample path,
// which is valid for any rigid transform.
func (s *Server) evalPose(b *pendingSweep, pc *surface.PoseComposer, pose geom.Rigid) (float64, TimingsJSON, error) {
	var tm TimingsJSON
	var pr *engine.Problem
	t0 := time.Now()
	composed := false
	if pc != nil {
		cx, qpts, err := pc.Compose("complex", pose)
		switch {
		case err == nil:
			pr = engine.NewProblemFromSurface(cx, qpts)
			composed = true
		case errors.Is(err, surface.ErrRotatedPose):
			// fall through to the exact path below
		default:
			return 0, tm, err
		}
	}
	if !composed {
		if b.rec == nil {
			pr = engine.NewProblem(b.lig.Transform(pose), b.opts.surf)
		} else {
			cx := molecule.Merge("complex", b.rec, b.lig.Transform(pose))
			pr = engine.NewProblem(cx, b.opts.surf)
		}
	}
	t1 := time.Now()
	p, err := engine.Prepare(pr, s.engineOpts(b.opts))
	if err != nil {
		return 0, tm, err
	}
	t2 := time.Now()
	rep, err := p.EvalEpol(s.engineOpts(b.opts))
	if err != nil {
		return 0, tm, err
	}
	t3 := time.Now()
	tm.SurfaceMS = msBetween(t0, t1)
	tm.PrepareMS = msBetween(t1, t2)
	tm.EvalMS = msBetween(t2, t3)
	s.metrics.stage(s.metrics.surface, "serve.surface", 0, t0, t1.Sub(t0))
	s.metrics.stage(s.metrics.prepare, "serve.prepare", 0, t1, t2.Sub(t1))
	s.metrics.stage(s.metrics.eval, "serve.eval", 0, t2, t3.Sub(t2))
	return rep.Energy, tm, nil
}
