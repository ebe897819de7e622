package serve

import (
	"context"
	"time"

	"octgb/internal/engine"
	"octgb/internal/molecule"
)

// energyOutcome is one /v1/energy evaluation's result, produced on a
// worker and consumed by the waiting handler.
type energyOutcome struct {
	energy    float64
	atoms     int
	bornRadii []float64
	src       cacheSource
	startedAt time.Time
	surfaceMS float64
	prepareMS float64
	evalMS    float64
	err       error
}

// engineOpts maps resolved request options onto the engine layer.
func (s *Server) engineOpts(o evalOpts) engine.Options {
	return engine.Options{
		Threads: s.cfg.Threads,
		BornEps: o.bornEps,
		EpolEps: o.epolEps,
		Observe: s.cfg.Observe,
	}
}

// buildPrepared is the cache-miss path: sample the surface, build the
// trees, run the Born phase. Stage timings are recorded globally and on
// the entry (cold responses echo them).
func (s *Server) buildPrepared(mol *molecule.Molecule, o evalOpts) (*built, error) {
	t0 := time.Now()
	pr := engine.NewProblem(mol, o.surf)
	t1 := time.Now()
	p, err := engine.Prepare(pr, s.engineOpts(o))
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	b := &built{
		prep:      p,
		surfaceNS: t1.Sub(t0).Nanoseconds(),
		prepareNS: t2.Sub(t1).Nanoseconds(),
	}
	s.metrics.stage(s.metrics.surface, "serve.surface", 0, t0, t1.Sub(t0))
	s.metrics.stage(s.metrics.prepare, "serve.prepare", 0, t1, t2.Sub(t1))
	return b, nil
}

// evalEnergy runs on a worker: prepared-problem lookup (singleflight
// build on miss) followed by the E_pol evaluation. A nil mol is a hash-only
// request: it is served from a resident or in-flight entry under key, or
// fails with errUnknownMolecule — it can never build, so never insert. Work
// whose deadline already passed while queued is abandoned before any
// computation. span is the request's root span ID (0 with observability
// off); the cache and eval stages are traced under it.
func (s *Server) evalEnergy(ctx context.Context, key string, mol *molecule.Molecule, o evalOpts, span uint64) energyOutcome {
	out := energyOutcome{startedAt: time.Now()}
	if ctx.Err() != nil {
		s.metrics.canceled.Inc()
		out.err = ctx.Err()
		return out
	}
	cacheStart := time.Now()
	var build func() (*built, error)
	if mol != nil {
		build = func() (*built, error) { return s.buildPrepared(mol, o) }
	}
	b, src, err := s.cache.get(key, build)
	s.metrics.stage(nil, "serve.cache", span, cacheStart, time.Since(cacheStart))
	if err != nil {
		out.err = err
		return out
	}
	out.src, out.atoms = src, b.prep.Pr.Mol.N()
	if src == sourceBuild {
		out.surfaceMS = float64(b.surfaceNS) / 1e6
		out.prepareMS = float64(b.prepareNS) / 1e6
	}

	// Cold and warm requests evaluate the same prepared entry, so they
	// get the same bits.
	t0 := time.Now()
	rep, err := b.prep.EvalEpol(s.engineOpts(o))
	if err != nil {
		out.err = err
		return out
	}
	out.energy, out.bornRadii = rep.Energy, rep.BornRadii
	evalD := time.Since(t0)
	out.evalMS = float64(evalD.Nanoseconds()) / 1e6
	s.metrics.stage(s.metrics.eval, "serve.eval", span, t0, evalD)
	return out
}
