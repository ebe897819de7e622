package main

import (
	"fmt"
	"math"
	"time"

	"octgb/internal/engine"
	"octgb/internal/molecule"
	"octgb/internal/obs"
	"octgb/internal/surface"
)

// coldSolve is the library one-shot: every op samples the surface, builds
// both octrees and both interaction lists, evaluates Born radii and E_pol,
// and throws it all away. No cache can help, so every preparation layer
// does its full work here — the paper's Fig. 7–9 experiment. One op is
// NewProblemParallel + RunReal(OctMPICilk, 2 ranks × P/2 threads); the
// caller is a single pipeline, the parallelism is inside the solve.
type coldSolve struct {
	cfg  *config
	ob   *obs.Observer
	deck []*molecule.Molecule
}

func newColdSolve(cfg *config, ob *obs.Observer) *coldSolve {
	return &coldSolve{cfg: cfg, ob: ob}
}

func (w *coldSolve) setup() error {
	w.deck = make([]*molecule.Molecule, w.cfg.sz.coldDeck)
	for i := range w.deck {
		w.deck[i] = protein("cold", w.cfg.sz.coldAtoms, w.cfg.seed, i)
	}
	// One pass over the deck grows the heap to its working size before
	// timing starts.
	for _, mol := range w.deck {
		if _, _, err := w.solve(mol); err != nil {
			return err
		}
	}
	return nil
}

// hybridShape is the hybrid engine's configuration on P cores: 2 ranks ×
// P/2 threads, never more cores than P.
func hybridShape(p int) (ranks, threads int) {
	if p < 2 {
		return 1, 1
	}
	return 2, p / 2
}

// solve runs one op and returns its report and the stage boundaries.
func (w *coldSolve) solve(mol *molecule.Molecule) (engine.RealReport, [3]time.Time, error) {
	var t [3]time.Time
	ranks, threads := hybridShape(w.cfg.p)
	t[0] = time.Now()
	pr := engine.NewProblemParallel(mol, surface.Default(), w.cfg.p)
	t[1] = time.Now()
	rep, err := engine.RunReal(pr, engine.OctMPICilk, engine.Options{Ranks: ranks, Threads: threads, Observe: w.ob})
	t[2] = time.Now()
	return rep, t, err
}

func (w *coldSolve) drive(_, ops int, sp *spanner) []opRec {
	var recs []opRec
	for i := 0; i < ops; i++ {
		k := i % len(w.deck)
		rep, t, err := w.solve(w.deck[k])
		r := opRec{start: t[0], dur: t[2].Sub(t[0]), work: 1, key: k, vals: []float64{rep.Energy}}
		if err != nil {
			r.failed = err.Error()
		}
		recs = append(recs, r)
		sp.op("cold_solve", 0, t[0], r.dur,
			stage{"surface.sample", t[0], t[1].Sub(t[0])},
			stage{"engine.run_real", t[1], t[2].Sub(t[1])})
	}
	return recs
}

// reference solves each deck molecule through a different configuration of
// the public entry point than the measured op: one single-threaded OCT_MPI
// rank over a serially sampled surface.
func (w *coldSolve) reference(keys []int) (map[int][]float64, error) {
	ref := map[int][]float64{}
	for _, k := range keys {
		pr := engine.NewProblem(w.deck[k], surface.Default())
		rep, err := engine.RunReal(pr, engine.OctMPI, engine.Options{Ranks: 1})
		if err != nil {
			return nil, err
		}
		ref[k] = []float64{rep.Energy}
	}
	return ref, nil
}

// preparedEnergy is the single-threaded shared-memory reference every
// serving path is compared with: Prepare + EvalEpol at the defaults.
func preparedEnergy(pr *engine.Problem) (float64, error) {
	p, err := engine.Prepare(pr, engine.Options{Threads: 1})
	if err != nil {
		return 0, err
	}
	rep, err := p.EvalEpol(engine.Options{Threads: 1})
	return rep.Energy, err
}

// validity checks that a re-solve repeats the first solve of the same
// molecule, and holds the first deck molecule to the paper's accuracy claim:
// the hybrid energy stays within 1 % of the exact quadratic sum. The exact
// sum costs eight solves' time, so one molecule per run is checked; every
// seed brings a new one.
func (w *coldSolve) validity(recs []opRec) []string {
	var bad []string
	first := map[int]float64{}
	for i := range recs {
		r := &recs[i]
		if r.failed != "" {
			continue
		}
		e := r.vals[0]
		if f, ok := first[r.key]; !ok {
			first[r.key] = e
		} else if math.Abs(e-f) > refTol*math.Abs(f) {
			bad = append(bad, fmt.Sprintf("re-solve of input %d gave %.12g, first solve %.12g", r.key, e, f))
		}
	}
	if e, ok := first[0]; ok {
		naive, err := engine.RunReal(engine.NewProblem(w.deck[0], surface.Default()), engine.Naive, engine.Options{Threads: w.cfg.p})
		if err != nil {
			bad = append(bad, "naive reference: "+err.Error())
		} else if rel := math.Abs(e-naive.Energy) / math.Abs(naive.Energy); rel > naiveTol {
			bad = append(bad, fmt.Sprintf("deck molecule 0: |E-E_naive|/|E_naive| = %.4g > %g", rel, naiveTol))
		}
	}
	return bad
}

func (w *coldSolve) layers(*metricSet, []opRec) {}

func (w *coldSolve) probeInput() probeInput { return probeInput{mol: w.deck[0]} }

func (w *coldSolve) close() {}
