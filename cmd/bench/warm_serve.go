package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"octgb/internal/engine"
	"octgb/internal/fabric"
	"octgb/internal/molecule"
	"octgb/internal/obs"
	"octgb/internal/serve"
	"octgb/internal/surface"
)

// warmWorkers is the fabric size: one router in front of two engine
// workers, so every key's two replicas are the two workers.
const warmWorkers = 2

// warmServe is the cache-hit serving path: an in-process fabric.Router and
// two serve.Server workers joined over real membership, with P closed-loop
// HTTP clients asking for the energy of a small working set that fits every
// cache. Surface sampling, octree builds and the Born phase do nothing
// here; JSON decode/encode, molecule hashing, the router hop, the queue
// and the E_pol evaluation are the whole request.
type warmServe struct {
	cfg *config
	ob  *obs.Observer

	mols   []*molecule.Molecule
	bodies [][]byte

	router  *fabric.Router
	servers []*serve.Server
	agents  []*fabric.Worker
	client  *http.Client
}

func newWarmServe(cfg *config, ob *obs.Observer) *warmServe {
	return &warmServe{cfg: cfg, ob: ob}
}

func (w *warmServe) setup() error {
	w.client = newHTTPClient(w.cfg.p)
	for i := 0; i < w.cfg.sz.warmKeys; i++ {
		mol := protein("warm", w.cfg.sz.warmAtoms, w.cfg.seed, i)
		w.mols = append(w.mols, mol)
		w.bodies = append(w.bodies, mustJSON(serve.EnergyRequest{Molecule: serve.FromMolecule(mol), DeadlineMS: requestDeadlineMS}))
	}

	w.router = fabric.NewRouter(fabric.RouterConfig{Addr: "127.0.0.1:0", MembershipAddr: "127.0.0.1:0", Observe: w.ob})
	if err := w.router.Start(); err != nil {
		return err
	}
	for i := 0; i < warmWorkers; i++ {
		// P slots per worker: the P closed-loop callers bound the evaluations
		// in flight, so two requests the router sends to the same worker
		// run side by side instead of queueing — request latency then does
		// not depend on how this seed's keys happen to hash onto the ring
		// (fabric.shard_balance still reports that).
		s, err := startServer(w.cfg.p, w.ob)
		if err != nil {
			return err
		}
		w.servers = append(w.servers, s)
		a, err := fabric.StartWorker(fabric.WorkerConfig{
			RouterAddr: w.router.MembershipAddr(),
			WorkerID:   fmt.Sprintf("w%d", i),
			Advertise:  s.Addr(),
			Epoch:      1,
			Load:       fabric.ServeLoad(s),
		})
		if err != nil {
			return err
		}
		w.agents = append(w.agents, a)
	}
	for _, a := range w.agents {
		if !a.WaitRegistered(10 * time.Second) {
			return fmt.Errorf("worker never registered with the router")
		}
	}

	// Warm both replicas of every key by asking each worker directly, so
	// the measured phase never builds a prepared problem.
	errs := make([]error, len(w.servers))
	var wg sync.WaitGroup
	for i, s := range w.servers {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			for _, body := range w.bodies {
				var er serve.EnergyResponse
				if c := do(w.client, http.MethodPost, "http://"+addr+"/v1/energy", body, &er); c.failure() != "" {
					errs[i] = fmt.Errorf("warm-up: %s", c.failure())
					return
				}
			}
		}(i, s.Addr())
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *warmServe) drive(ways, ops int, sp *spanner) []opRec {
	return w.driveAt([]string{w.router.Addr()}, "warm_serve", ways, ops, sp)
}

// driveAt runs the closed loop with caller i posting to addrs[i mod n]:
// the router for the measured phases, the workers themselves for the
// direct-path probe.
func (w *warmServe) driveAt(addrs []string, opName string, ways, ops int, sp *spanner) []opRec {
	return runClients(ways, ops, func(id, ops int) []opRec {
		url := "http://" + addrs[id%len(addrs)] + "/v1/energy"
		var recs []opRec
		for i := 0; i < ops; i++ {
			k := (id + i*ways) % len(w.bodies)
			var er serve.EnergyResponse
			c := do(w.client, http.MethodPost, url, w.bodies[k], &er)
			r := opRec{start: c.start, dur: c.total(), work: 1, key: k, vals: []float64{er.Energy}, failed: c.failure(),
				hit: er.Cache == "hit", worker: c.header.Get(fabric.WorkerHeader)}
			r.timingsInto(er.Timings)
			recs = append(recs, r)
			sp.op(opName, id, c.start, r.dur, c.stages()...)
		}
		return recs
	})
}

func (w *warmServe) reference(keys []int) (map[int][]float64, error) {
	ref := map[int][]float64{}
	for _, k := range keys {
		e, err := preparedEnergy(engine.NewProblem(w.mols[k], surface.Default()))
		if err != nil {
			return nil, err
		}
		ref[k] = []float64{e}
	}
	return ref, nil
}

// validity fails the run when the measured phase was not the warm path it
// claims to be, or the fabric was not healthy: either would skew every
// metric rather than show up in one.
func (w *warmServe) validity(recs []opRec) []string {
	var bad []string
	if share, n := hitShare(recs); n > 0 && share < 0.99 {
		bad = append(bad, fmt.Sprintf("cache hit share %.3f < 0.99 over %d requests", share, n))
	}
	if st := w.router.Stats(); st.Requests.Retries != 0 {
		bad = append(bad, fmt.Sprintf("router retried %d requests on a healthy fabric", st.Requests.Retries))
	}
	return bad
}

func hitShare(recs []opRec) (float64, int) {
	hits, n := 0, 0
	for i := range recs {
		if r := &recs[i]; !r.aux && r.failed == "" {
			n++
			if r.hit {
				hits++
			}
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(hits) / float64(n), n
}

func (w *warmServe) layers(m *metricSet, recs []opRec) {
	serveStageMetrics(m, recs)
	share, n := hitShare(recs)
	m.set("serve.cache_hit_share", "ratio", share, n)
	codecMetrics(m, w.bodies[0], func(b []byte) {
		var req serve.EnergyRequest
		if err := json.Unmarshal(b, &req); err != nil {
			panic("bench: decode probe: " + err.Error())
		}
		if _, err := req.Molecule.ToMolecule(); err != nil {
			panic("bench: decode probe: " + err.Error())
		}
	}, serve.EnergyResponse{RequestID: "0123abcd-000001", Atoms: w.cfg.sz.warmAtoms, Energy: -12345.678901234, Cache: "hit", Engine: "OCT_CILK"}, w.cfg.sz.probeN)

	// The same requests straight to the workers, one caller each: what
	// the router hop costs.
	via, _ := mainOps(recs)
	var addrs []string
	for _, s := range w.servers {
		addrs = append(addrs, s.Addr())
	}
	direct, _ := mainOps(w.driveAt(addrs, "warm_serve.direct", w.cfg.p, w.cfg.sz.roundOps["warm_serve"], nil))
	m.set("serve.direct_ms_p50", "ms", median(direct), len(direct))
	m.set("fabric.hop_ms", "ms", median(via)-median(direct), len(direct))

	st := w.router.Stats()
	m.set("fabric.hedges", "count", float64(st.Hedge.Launched), 1)
	m.set("fabric.retries", "count", float64(st.Requests.Retries), 1)
	m.set("fabric.spills", "count", float64(st.Requests.Spills), 1)
	perWorker := map[string]int{}
	for i := range recs {
		if r := &recs[i]; r.worker != "" {
			perWorker[r.worker]++
		}
	}
	lo, hi := perWorker["w0"], perWorker["w1"]
	if lo > hi {
		lo, hi = hi, lo
	}
	balance := 0.0 // one worker served nothing: no finite ratio to report
	if lo > 0 {
		balance = float64(hi) / float64(lo)
	}
	m.set("fabric.shard_balance", "ratio", balance, len(recs))
}

func (w *warmServe) probeInput() probeInput { return probeInput{mol: w.mols[0]} }

func (w *warmServe) close() {
	for _, a := range w.agents {
		a.Close()
	}
	for _, s := range w.servers {
		stopServer(s)
	}
	if w.router != nil {
		ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		_ = w.router.Shutdown(ctx) // nothing to act on if the listener is already gone
		cancel()
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
}
