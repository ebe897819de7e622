package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strings"

	"octgb/internal/engine"
	"octgb/internal/geom"
	"octgb/internal/molecule"
	"octgb/internal/obs"
	"octgb/internal/serve"
	"octgb/internal/surface"
)

// dockSweep is the docking scan: one serve.Server (no router) with P
// worker slots, P closed-loop clients posting /v1/sweep for a fixed
// receptor and ligand with a handful of translation-only poses each. The
// surface layer works differently here (poses are composed from the cached
// parts, never re-sampled after the first request) while octree build,
// Born list build and Born eval run once per pose — so a list-build or
// octree-build gain shows here and on cold_solve, a surface-sampling gain
// on cold_solve only.
type dockSweep struct {
	cfg *config
	ob  *obs.Observer

	rec, lig *molecule.Molecule
	pool     []geom.Rigid // seeded translation poses
	requests [][]int      // pool indices of each request's poses
	bodies   [][]byte

	server *serve.Server
	client *http.Client
}

func newDockSweep(cfg *config, ob *obs.Observer) *dockSweep {
	return &dockSweep{cfg: cfg, ob: ob}
}

func (w *dockSweep) setup() error {
	sz := w.cfg.sz
	w.client = newHTTPClient(w.cfg.p)
	w.rec = protein("receptor", sz.dockRec, w.cfg.seed, 100)
	w.lig = protein("ligand", sz.dockLig, w.cfg.seed, 101)

	// Contact-distance translations in seeded random directions: the
	// ligand sits on the receptor's surface, where docking scans look.
	rng := rand.New(rand.NewSource(w.cfg.seed*1000 + 102))
	reach := 0.62 * w.rec.Bounds().HalfDiagonal()
	w.pool = make([]geom.Rigid, sz.dockPool)
	for i := range w.pool {
		z := 2*rng.Float64() - 1
		phi := 2 * math.Pi * rng.Float64()
		s := math.Sqrt(1 - z*z)
		p := geom.Identity()
		p.T = geom.V(reach*s*math.Cos(phi), reach*s*math.Sin(phi), reach*z)
		w.pool[i] = p
	}
	rj, lj := serve.FromMolecule(w.rec), serve.FromMolecule(w.lig)
	w.requests = make([][]int, sz.dockRequests)
	w.bodies = make([][]byte, sz.dockRequests)
	for i := range w.requests {
		poses := make([]serve.PoseJSON, sz.dockPosesPerReq)
		w.requests[i] = make([]int, sz.dockPosesPerReq)
		for j := range poses {
			k := rng.Intn(len(w.pool))
			w.requests[i][j] = k
			t := w.pool[k].T
			poses[j] = serve.PoseJSON{T: [3]float64{t.X, t.Y, t.Z}}
		}
		w.bodies[i] = mustJSON(serve.SweepRequest{Receptor: &rj, Ligand: lj, Poses: poses, DeadlineMS: requestDeadlineMS})
	}

	s, err := startServer(w.cfg.p, w.ob)
	if err != nil {
		return err
	}
	w.server = s
	// The first sweep samples both surfaces and prepares both molecules;
	// every later one finds them cached.
	var sr serve.SweepResponse
	if c := do(w.client, http.MethodPost, w.url(), w.bodies[0], &sr); c.failure() != "" {
		return fmt.Errorf("warm-up sweep: %s", c.failure())
	}
	return nil
}

func (w *dockSweep) url() string { return "http://" + w.server.Addr() + "/v1/sweep" }

func (w *dockSweep) drive(ways, ops int, sp *spanner) []opRec {
	return runClients(ways, ops, func(id, ops int) []opRec {
		var recs []opRec
		for i := 0; i < ops; i++ {
			k := (id + i*ways) % len(w.bodies)
			var sr serve.SweepResponse
			c := do(w.client, http.MethodPost, w.url(), w.bodies[k], &sr)
			r := opRec{start: c.start, dur: c.total(), work: len(w.requests[k]), key: k, vals: sr.Energies, failed: c.failure(),
				hit:           strings.Count(sr.Cache, "hit") == 2,
				batchRequests: sr.BatchRequests, batchPoses: sr.BatchPoses}
			r.timingsInto(sr.Timings)
			recs = append(recs, r)
			sp.op("dock_sweep", id, c.start, r.dur, c.stages()...)
		}
		return recs
	})
}

// reference scores every pool pose the given requests use through the
// exact library path — merge, re-sample the complex's surface, Prepare,
// EvalEpol — which composed surfaces must reproduce for translations.
func (w *dockSweep) reference(keys []int) (map[int][]float64, error) {
	pose := map[int]float64{}
	ref := map[int][]float64{}
	for _, k := range keys {
		for _, p := range w.requests[k] {
			if _, ok := pose[p]; !ok {
				cx := molecule.Merge("complex", w.rec, w.lig.Transform(w.pool[p]))
				e, err := preparedEnergy(engine.NewProblem(cx, surface.Default()))
				if err != nil {
					return nil, err
				}
				pose[p] = e
			}
			ref[k] = append(ref[k], pose[p])
		}
	}
	return ref, nil
}

func (w *dockSweep) validity(recs []opRec) []string {
	if share, n := hitShare(recs); n > 0 && share < 0.99 {
		return []string{fmt.Sprintf("receptor+ligand cache hit share %.3f < 0.99 over %d sweeps", share, n)}
	}
	return nil
}

func (w *dockSweep) layers(m *metricSet, recs []opRec) {
	serveStageMetrics(m, recs)
	share, n := hitShare(recs)
	m.set("serve.cache_hit_share", "ratio", share, n)
	var br, bp, perPose []float64
	for i := range recs {
		r := &recs[i]
		if r.failed != "" {
			continue
		}
		br, bp = append(br, float64(r.batchRequests)), append(bp, float64(r.batchPoses))
		perPose = append(perPose, (r.surfaceMS+r.prepareMS+r.evalMS)/float64(r.work))
	}
	m.set("serve.batch_requests", "count", median(br), len(br))
	m.set("serve.batch_poses", "count", median(bp), len(bp))
	m.set("serve.pose_ms", "ms", median(perPose), len(perPose))
	codecMetrics(m, w.bodies[0], func(b []byte) {
		var req serve.SweepRequest
		if err := json.Unmarshal(b, &req); err != nil {
			panic("bench: decode probe: " + err.Error())
		}
		for _, mj := range []*serve.MoleculeJSON{req.Receptor, &req.Ligand} {
			if _, err := mj.ToMolecule(); err != nil {
				panic("bench: decode probe: " + err.Error())
			}
		}
	}, serve.SweepResponse{RequestID: "0123abcd-000001", Poses: w.cfg.sz.dockPosesPerReq,
		Energies: make([]float64, w.cfg.sz.dockPosesPerReq), Deltas: make([]float64, w.cfg.sz.dockPosesPerReq),
		Cache: "receptor:hit ligand:hit"}, w.cfg.sz.probeN)
}

func (w *dockSweep) probeInput() probeInput {
	return probeInput{
		mol: molecule.Merge("complex", w.rec, w.lig.Transform(w.pool[0])),
		rec: w.rec, lig: w.lig, pose: w.pool[0],
	}
}

func (w *dockSweep) close() {
	if w.server != nil {
		stopServer(w.server)
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
}
