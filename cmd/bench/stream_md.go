package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"

	"octgb/internal/engine"
	"octgb/internal/geom"
	"octgb/internal/molecule"
	"octgb/internal/obs"
	"octgb/internal/serve"
	"octgb/internal/surface"
)

// streamJitter is the largest displacement (Å) of a moved atom from its
// home position. At 0.15 Å the median frame is the pure incremental path
// (refit, dirty-row resum, gated radius pushes), a few frames per session
// re-derive a driver list after a slack breach, and none rebuilds
// structure; from 0.2 Å most frames re-derive and from 0.3 Å a third take
// the structural-refresh path, which is no longer the incremental case.
const streamJitter = 0.15

// scratchTol bounds the streamed energy of the last frame against a
// from-scratch session built at the final positions. A session freezes
// burial culling at creation and gates Born-radius pushes (see
// engine.Session), so the two agree to a few 1e-4, not to rounding; the
// bound is half the paper's 1 % accuracy claim.
const scratchTol = 5e-3

// oracleFrames is how many leading frames are replayed through the
// every-frame-resweeps oracle session (ResweepEvery = 1), which the
// incremental session must match to refTol. Each oracle frame costs a full
// resweep, so the check covers the head of the stream only.
const oracleFrames = 8

// createKey is the reference key of a session's initial energy; frame
// indices are the keys of the frames.
const createKey = -1

// streamMD is the write side of the same layers: a caller opens a session
// for a moving molecule, streams frames that each move a few atoms, and
// closes it — octree refit instead of build, dirty-row resum instead of
// list eval, engine.Session instead of Prepared. The median frame is the
// incremental path, the slowest percent the periodic full resweep, and
// session create is the allocation-heavy path.
//
// Every session streams the same seeded frame sequence from the same
// molecule, so one library replay is the reference for all of them.
type streamMD struct {
	cfg *config
	ob  *obs.Observer

	mol        *molecule.Molecule
	createBody []byte
	frames     []engine.FrameDelta
	frameBody  [][]byte

	server *serve.Server
	client *http.Client
}

func newStreamMD(cfg *config, ob *obs.Observer) *streamMD {
	return &streamMD{cfg: cfg, ob: ob}
}

func (w *streamMD) setup() error {
	sz := w.cfg.sz
	w.client = newHTTPClient(w.cfg.p)
	w.mol = protein("stream", sz.streamAtoms, w.cfg.seed, 200)
	w.createBody = mustJSON(serve.StreamCreateRequest{Molecule: serve.FromMolecule(w.mol), DeadlineMS: requestDeadlineMS})

	w.frames = jitterFrames(w.mol, sz.streamFrames, sz.streamMovers, w.cfg.seed*1000+201)
	w.frameBody = make([][]byte, len(w.frames))
	for f, fr := range w.frames {
		wire := make([]serve.MoveJSON, len(fr.Moves))
		for j, mv := range fr.Moves {
			wire[j] = serve.MoveJSON{I: mv.Index, Pos: [3]float64{mv.Pos.X, mv.Pos.Y, mv.Pos.Z}}
		}
		w.frameBody[f] = mustJSON(serve.StreamFrameRequest{Moves: wire, DeadlineMS: requestDeadlineMS})
	}

	s, err := startServer(w.cfg.p, w.ob)
	if err != nil {
		return err
	}
	w.server = s
	// One short session before timing: the first create grows the heap to
	// a session's working size.
	warm := w.session(0, min(8, sz.streamFrames), nil)
	for i := range warm {
		if warm[i].failed != "" {
			return fmt.Errorf("warm-up session: %s", warm[i].failed)
		}
	}
	return nil
}

// jitterFrames is a seeded stream of n frames, each moving `movers` random
// atoms to within streamJitter of their home positions (not compounding:
// the molecule vibrates, it does not drift).
func jitterFrames(mol *molecule.Molecule, n, movers int, seed int64) []engine.FrameDelta {
	rng := rand.New(rand.NewSource(seed))
	amp := streamJitter / math.Sqrt(3)
	frames := make([]engine.FrameDelta, n)
	for f := range frames {
		moves := make([]engine.AtomMove, movers)
		for j := range moves {
			i := rng.Intn(mol.N())
			d := geom.V((2*rng.Float64()-1)*amp, (2*rng.Float64()-1)*amp, (2*rng.Float64()-1)*amp)
			moves[j] = engine.AtomMove{Index: i, Pos: mol.Atoms[i].Pos.Add(d)}
		}
		frames[f] = engine.FrameDelta{Moves: moves}
	}
	return frames
}

func (w *streamMD) base() string { return "http://" + w.server.Addr() + "/v1/stream" }

// drive gives every caller its share of the frames, streamed through as
// many whole sessions as that takes (one, on the full scale).
func (w *streamMD) drive(ways, ops int, sp *spanner) []opRec {
	return runClients(ways, ops, func(id, ops int) []opRec {
		var recs []opRec
		for left := ops; left > 0; left -= len(w.frameBody) {
			s := w.session(id, min(left, len(w.frameBody)), sp)
			recs = append(recs, s...)
			if s[0].failed != "" {
				break // a server that cannot create sessions fails every later one too
			}
		}
		return recs
	})
}

// session runs one create → n frames → close cycle.
func (w *streamMD) session(id, n int, sp *spanner) []opRec {
	var recs []opRec
	var cr serve.StreamCreateResponse
	c := do(w.client, http.MethodPost, w.base(), w.createBody, &cr)
	r := opRec{start: c.start, dur: c.total(), aux: true, key: createKey, vals: []float64{cr.Energy}, failed: c.failure()}
	r.timingsInto(cr.Timings)
	recs = append(recs, r)
	sp.op("stream_md.create", id, c.start, r.dur, c.stages()...)
	if r.failed != "" {
		return recs
	}
	url := w.base() + "/" + cr.SessionID
	for f := 0; f < n; f++ {
		var fr serve.StreamFrameResponse
		c := do(w.client, http.MethodPost, url+"/frame", w.frameBody[f], &fr)
		r := opRec{start: c.start, dur: c.total(), work: 1, key: f, vals: []float64{fr.Energy}, failed: c.failure()}
		r.timingsInto(fr.Timings)
		recs = append(recs, r)
		sp.op("stream_md", id, c.start, r.dur, c.stages()...)
	}
	var cl serve.StreamCloseResponse
	c = do(w.client, http.MethodDelete, url, nil, &cl)
	recs = append(recs, opRec{start: c.start, dur: c.total(), aux: true, failed: c.failure()})
	sp.op("stream_md.close", id, c.start, c.total(), c.stages()...)
	return recs
}

func (w *streamMD) sessionOptions() engine.SessionOptions {
	return engine.SessionOptions{Surf: surface.Default(), Eval: engine.Options{Threads: 1}}
}

// reference replays the frame sequence through a library session with the
// server's options, up to the last frame any session reached. The replay
// itself is held against two from-scratch evaluations: the every-frame
// resweep oracle over the first oracleFrames frames, and a fresh session
// built at the final positions.
func (w *streamMD) reference(keys []int) (map[int][]float64, error) {
	last := -1
	for _, k := range keys {
		if k > last {
			last = k
		}
	}
	ss, err := engine.NewSession(w.mol, w.sessionOptions())
	if err != nil {
		return nil, err
	}
	oo := w.sessionOptions()
	oo.ResweepEvery = 1
	oracle, err := engine.NewSession(w.mol, oo)
	if err != nil {
		return nil, err
	}
	ref := map[int][]float64{createKey: {ss.Energy()}}
	final := &molecule.Molecule{Name: w.mol.Name, Atoms: append([]molecule.Atom(nil), w.mol.Atoms...)}
	for f := 0; f <= last; f++ {
		rep, err := ss.Step(w.frames[f])
		if err != nil {
			return nil, err
		}
		ref[f] = []float64{rep.Energy}
		for _, mv := range w.frames[f].Moves {
			final.Atoms[mv.Index].Pos = mv.Pos
		}
		if f < oracleFrames {
			orep, err := oracle.Step(w.frames[f])
			if err != nil {
				return nil, err
			}
			if !matches(ref[f], []float64{orep.Energy}) {
				return nil, fmt.Errorf("frame %d: incremental energy %.12g vs resweep oracle %.12g", f, rep.Energy, orep.Energy)
			}
		}
	}
	scratch, err := engine.NewSession(final, w.sessionOptions())
	if err != nil {
		return nil, err
	}
	if d := math.Abs(scratch.Energy()-ss.Energy()) / math.Abs(scratch.Energy()); d > scratchTol {
		return nil, fmt.Errorf("streamed energy %.12g vs from-scratch %.12g after %d frames (rel %.3g > %g)",
			ss.Energy(), scratch.Energy(), last+1, d, scratchTol)
	}
	return ref, nil
}

func (w *streamMD) validity([]opRec) []string { return nil }

func (w *streamMD) layers(m *metricSet, recs []opRec) {
	serveStageMetrics(m, recs)
	var over, create []float64
	for i := range recs {
		r := &recs[i]
		switch {
		case r.failed != "":
		case r.key == createKey && r.aux && len(r.vals) > 0:
			create = append(create, ms(r.dur))
		case !r.aux:
			over = append(over, ms(r.dur)-r.evalMS)
		}
	}
	m.set("serve.frame_overhead_ms", "ms", median(over), len(over))
	m.set("serve.create_ms_p50", "ms", median(create), len(create))
	codecMetrics(m, w.frameBody[0], func(b []byte) {
		var req serve.StreamFrameRequest
		if err := json.Unmarshal(b, &req); err != nil {
			panic("bench: decode probe: " + err.Error())
		}
	}, serve.StreamFrameResponse{RequestID: "0123abcd-000001", SessionID: "s-0123abcd-0001", Frame: 1,
		Energy: -12345.678901234, MovedAtoms: w.cfg.sz.streamMovers}, w.cfg.sz.probeN)
}

func (w *streamMD) probeInput() probeInput {
	return probeInput{mol: w.mol}
}

func (w *streamMD) close() {
	if w.server != nil {
		stopServer(w.server)
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
}
