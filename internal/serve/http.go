package serve

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"octgb/internal/engine"
	"octgb/internal/geom"
	"octgb/internal/molecule"
	"octgb/internal/surface"
)

// MoleculeJSON is the wire form of a molecule: each atom is the 5-tuple
// [x, y, z, radius, charge] (Å, Å, elementary charges).
type MoleculeJSON struct {
	Name  string       `json:"name,omitempty"`
	Atoms [][5]float64 `json:"atoms,omitempty"`
	// Hash is the hex molecule.Hash of the atoms. Sent without atoms on
	// /v1/energy it asks for a molecule the server already holds prepared
	// (404 unknown_molecule when it does not); sent with atoms it must match
	// them. See Resolve.
	Hash string `json:"hash,omitempty"`
}

// FromMolecule converts to the wire form (used by clients and benches).
func FromMolecule(m *molecule.Molecule) MoleculeJSON {
	mj := MoleculeJSON{Name: m.Name, Atoms: make([][5]float64, m.N())}
	for i, a := range m.Atoms {
		mj.Atoms[i] = [5]float64{a.Pos.X, a.Pos.Y, a.Pos.Z, a.Radius, a.Charge}
	}
	return mj
}

// ToMolecule converts from the wire form and validates it.
func (mj *MoleculeJSON) ToMolecule() (*molecule.Molecule, error) {
	if len(mj.Atoms) == 0 {
		return nil, fmt.Errorf("empty molecule")
	}
	m := &molecule.Molecule{Name: mj.Name, Atoms: make([]molecule.Atom, len(mj.Atoms))}
	for i := range mj.Atoms {
		if err := mj.atom(i, &m.Atoms[i]); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// atom converts wire row i into a and checks it: every coordinate within
// ±engine.MaxCoordinate, then Validate's rules (molecule.CheckAtom). Both
// tiers accept or refuse a molecule row by row through it.
func (mj *MoleculeJSON) atom(i int, a *molecule.Atom) error {
	r := &mj.Atoms[i]
	for _, c := range r[:3] {
		if math.Abs(c) > engine.MaxCoordinate {
			return fmt.Errorf("atom %d: coordinate %g outside ±%g Å", i, c, engine.MaxCoordinate)
		}
	}
	*a = molecule.Atom{Pos: geom.V(r[0], r[1], r[2]), Radius: r[3], Charge: r[4]}
	return molecule.CheckAtom(mj.Name, i, a)
}

// PoseJSON is a rigid transform: optional row-major 3×3 rotation (identity
// when omitted) followed by a translation.
type PoseJSON struct {
	Rot *[9]float64 `json:"rot,omitempty"`
	T   [3]float64  `json:"t"`
}

// ToRigid converts to the geometry type.
func (p PoseJSON) ToRigid() geom.Rigid {
	r := geom.Identity()
	if p.Rot != nil {
		r.R = [3][3]float64{
			{p.Rot[0], p.Rot[1], p.Rot[2]},
			{p.Rot[3], p.Rot[4], p.Rot[5]},
			{p.Rot[6], p.Rot[7], p.Rot[8]},
		}
	}
	r.T = geom.V(p.T[0], p.T[1], p.T[2])
	return r
}

// OptionsJSON are the per-request evaluation parameters; zero fields fall
// back to the server's configured defaults. SubdivLevel and Degree are
// bounded (CheckSampling).
type OptionsJSON struct {
	BornEps     float64 `json:"born_eps,omitempty"`
	EpolEps     float64 `json:"epol_eps,omitempty"`
	SubdivLevel int     `json:"subdiv_level,omitempty"`
	Degree      int     `json:"degree,omitempty"`
}

// EnergyRequest is the POST /v1/energy payload.
type EnergyRequest struct {
	Molecule MoleculeJSON `json:"molecule"`
	Options  *OptionsJSON `json:"options,omitempty"`
	// DeadlineMS bounds queue wait + evaluation; 0 uses the server default.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// IncludeRadii returns the per-atom Born radii too.
	IncludeRadii bool `json:"include_radii,omitempty"`
}

// TimingsJSON is a per-request stage breakdown in milliseconds. Stages a
// cache hit skipped report 0.
type TimingsJSON struct {
	QueueMS   float64 `json:"queue_ms"`
	SurfaceMS float64 `json:"surface_ms"`
	PrepareMS float64 `json:"prepare_ms"`
	EvalMS    float64 `json:"eval_ms"`
}

// EnergyResponse is the POST /v1/energy result.
type EnergyResponse struct {
	RequestID string    `json:"request_id"`
	Name      string    `json:"name,omitempty"`
	Atoms     int       `json:"atoms"`
	Energy    float64   `json:"energy"` // kcal/mol
	BornRadii []float64 `json:"born_radii,omitempty"`
	// Cache is "hit", "miss" (this request built the entry) or "coalesced"
	// (another in-flight request built it; this one waited).
	Cache   string      `json:"cache"`
	Engine  string      `json:"engine"`
	Timings TimingsJSON `json:"timings"`
}

// SweepRequest is the POST /v1/sweep payload: a rigid-body pose sweep of a
// ligand, optionally against a fixed receptor. Requests with the same
// receptor, ligand and options arriving within the server's batch window
// are coalesced into one engine run.
type SweepRequest struct {
	// Receptor, when present, is merged with the posed ligand per pose and
	// per-pose binding deltas are returned.
	Receptor *MoleculeJSON `json:"receptor,omitempty"`
	Ligand   MoleculeJSON  `json:"ligand"`
	Poses    []PoseJSON    `json:"poses"`
	Options  *OptionsJSON  `json:"options,omitempty"`
	// ExactSurface forces re-sampling each pose's complex surface from
	// scratch. The default composes it from the cached receptor and ligand
	// surfaces (surface.PoseComposer) — exact for translations; poses that
	// carry a rotation automatically fall back to the re-sampling path.
	ExactSurface bool  `json:"exact_surface,omitempty"`
	DeadlineMS   int64 `json:"deadline_ms,omitempty"`
}

// SweepResponse is the POST /v1/sweep result. Energies[i] is the complex
// energy at pose i; with a receptor, Deltas[i] = Energies[i] −
// ReceptorEnergy − LigandEnergy is the polarization part of the binding
// energy.
type SweepResponse struct {
	RequestID      string    `json:"request_id"`
	Poses          int       `json:"poses"`
	Energies       []float64 `json:"energies"`
	Deltas         []float64 `json:"deltas,omitempty"`
	ReceptorEnergy float64   `json:"receptor_energy,omitempty"`
	LigandEnergy   float64   `json:"ligand_energy"`
	// BatchRequests / BatchPoses describe the coalesced engine run this
	// request rode in.
	BatchRequests int         `json:"batch_requests"`
	BatchPoses    int         `json:"batch_poses"`
	Cache         string      `json:"cache"`
	Timings       TimingsJSON `json:"timings"`
}

// StreamCreateRequest is the POST /v1/stream payload: the molecule to
// open an incremental session for. The response carries the session ID
// every subsequent frame and close call addresses.
type StreamCreateRequest struct {
	Molecule MoleculeJSON       `json:"molecule"`
	Options  *StreamOptionsJSON `json:"options,omitempty"`
	// DeadlineMS bounds queue wait + session construction.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// StreamOptionsJSON extends the per-request evaluation parameters with the
// incremental-session knobs (engine.SessionOptions); zero fields use the
// engine defaults.
type StreamOptionsJSON struct {
	OptionsJSON
	// ResweepEvery forces a full value resweep every k-th frame (0 → 64).
	ResweepEvery int `json:"resweep_every,omitempty"`
	// SlackFactor / MinSlack set the drift margin before interaction lists
	// re-derive (0 → 0.05 / 0.25 Å).
	SlackFactor float64 `json:"slack_factor,omitempty"`
	MinSlack    float64 `json:"min_slack,omitempty"`
}

// StreamCreateResponse is the POST /v1/stream result. Timings.PrepareMS
// covers the whole session build (surface + trees + initial evaluation).
type StreamCreateResponse struct {
	RequestID string      `json:"request_id"`
	SessionID string      `json:"session_id"`
	Name      string      `json:"name,omitempty"`
	Atoms     int         `json:"atoms"`
	QPoints   int         `json:"qpoints"`
	Energy    float64     `json:"energy"` // kcal/mol
	Timings   TimingsJSON `json:"timings"`
}

// MoveJSON is one atom move of a stream frame: atom index (original
// order) and absolute position (Å).
type MoveJSON struct {
	I   int        `json:"i"`
	Pos [3]float64 `json:"pos"`
}

// StreamFrameRequest is the POST /v1/stream/{id}/frame payload.
type StreamFrameRequest struct {
	Moves      []MoveJSON `json:"moves"`
	DeadlineMS int64      `json:"deadline_ms,omitempty"`
}

// StreamFrameResponse is one frame's result: the updated energy plus the
// frame's dirty-set counters (see engine.FrameReport). Timings.EvalMS is
// the frame evaluation time — the number the mode="stream" histogram
// tracks.
type StreamFrameResponse struct {
	RequestID        string      `json:"request_id"`
	SessionID        string      `json:"session_id"`
	Frame            int         `json:"frame"`
	Energy           float64     `json:"energy"` // kcal/mol
	MovedAtoms       int         `json:"moved_atoms"`
	DirtyBornRows    int         `json:"dirty_born_rows"`
	DirtyEpolDrivers int         `json:"dirty_epol_drivers"`
	PushedRadii      int         `json:"pushed_radii"`
	Rederived        int         `json:"rederived"`
	Resweep          bool        `json:"resweep,omitempty"`
	Refreshed        bool        `json:"refreshed,omitempty"`
	Timings          TimingsJSON `json:"timings"`
}

// StreamCloseResponse is the DELETE /v1/stream/{id} result.
type StreamCloseResponse struct {
	RequestID string  `json:"request_id"`
	SessionID string  `json:"session_id"`
	Frames    int     `json:"frames"`
	Energy    float64 `json:"energy"` // kcal/mol, as of the last frame
}

// ErrorResponse is every non-2xx payload. Error is a stable machine token:
// bad_request, too_large, queue_full, shed_load, draining,
// deadline_exceeded, eval_failed, method_not_allowed, not_found,
// unknown_molecule.
type ErrorResponse struct {
	RequestID    string `json:"request_id"`
	Error        string `json:"error"`
	Detail       string `json:"detail,omitempty"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// writeJSON marshals v before the status goes out, so a value that does
// not encode — a NaN or ±Inf float — answers 500 eval_failed with a body
// instead of its status with an empty one.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		body, _ = json.Marshal(ErrorResponse{Error: "eval_failed", Detail: "response does not encode: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(body, '\n'))
}

func writeError(w http.ResponseWriter, status int, reqID, token, detail string, retryAfter time.Duration) {
	if retryAfter > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(retryAfter.Seconds()+1)))
	}
	writeJSON(w, status, ErrorResponse{
		RequestID:    reqID,
		Error:        token,
		Detail:       detail,
		RetryAfterMS: retryAfter.Milliseconds(),
	})
}

// retryAfterHint estimates how long a rejected client should back off:
// the queue depth times the observed mean evaluation time (250ms floor
// before any evaluation has completed).
func (s *Server) retryAfterHint() time.Duration {
	mean := 250 * time.Millisecond
	if m := s.metrics.eval.Snapshot().Mean(); m > 0 {
		mean = max(m, 50*time.Millisecond)
	}
	return time.Duration(len(s.queue)/s.cfg.Workers+1) * mean
}

func (s *Server) deadlineFor(ms int64) time.Duration {
	if ms > 0 {
		return time.Duration(ms) * time.Millisecond
	}
	return s.cfg.DefaultDeadline
}

func (s *Server) handleEnergy(w http.ResponseWriter, r *http.Request) {
	reqID := s.nextReqID()
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, reqID, "method_not_allowed", "POST required", 0)
		return
	}
	s.metrics.energyRequests.Inc()
	reqStart := time.Now()
	span := s.metrics.ob.NextID()

	var req EnergyRequest
	if _, err := ReadRequest(w, r, &req); err != nil {
		s.reject(w, reqID, err)
		return
	}
	// mol is nil for a hash-only request: the lookup below then serves it
	// from a resident (or in-flight) entry or not at all.
	mol, sum, err := req.Molecule.Resolve()
	if err != nil {
		s.reject(w, reqID, err)
		return
	}
	if mol != nil && mol.N() > s.cfg.MaxAtoms {
		writeError(w, http.StatusRequestEntityTooLarge, reqID, "too_large",
			fmt.Sprintf("%d atoms exceeds limit %d", mol.N(), s.cfg.MaxAtoms), 0)
		return
	}
	opts, err := s.resolveOpts(req.Options)
	if err != nil {
		s.reject(w, reqID, err)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.deadlineFor(req.DeadlineMS))
	defer cancel()
	queued := time.Now()
	outCh := make(chan energyOutcome, 1)
	key := cacheKey(hex.EncodeToString(sum[:]), opts)
	if err := s.submit(func() { outCh <- s.evalEnergy(ctx, key, mol, opts, span) }); err != nil {
		s.admissionError(w, reqID, err)
		return
	}
	select {
	case out := <-outCh:
		s.metrics.stage(s.metrics.queueWait, "serve.queue", span, queued, out.startedAt.Sub(queued))
		s.metrics.request(s.metrics.reqEnergy, "serve.energy", span, reqStart)
		if errors.Is(out.err, errUnknownMolecule) {
			writeError(w, http.StatusNotFound, reqID, UnknownMolecule, "no prepared entry for this hash and these options; send the atoms", 0)
			return
		}
		if out.err != nil {
			s.metrics.failed.Inc()
			writeError(w, http.StatusInternalServerError, reqID, "eval_failed", out.err.Error(), 0)
			return
		}
		s.metrics.completed.Inc()
		resp := EnergyResponse{
			RequestID: reqID,
			Name:      req.Molecule.Name,
			Atoms:     out.atoms,
			Energy:    out.energy,
			Cache:     string(out.src),
			Engine:    engine.OctCilk.String(),
			Timings: TimingsJSON{
				QueueMS:   msBetween(queued, out.startedAt),
				SurfaceMS: out.surfaceMS,
				PrepareMS: out.prepareMS,
				EvalMS:    out.evalMS,
			},
		}
		if req.IncludeRadii {
			resp.BornRadii = out.bornRadii
		}
		s.logf("serve: %s energy %s atoms=%d cache=%s E=%.6g", reqID, req.Molecule.Name, out.atoms, out.src, out.energy)
		writeJSON(w, http.StatusOK, resp)
	case <-ctx.Done():
		s.metrics.deadlineMisses.Inc()
		s.metrics.request(s.metrics.reqEnergy, "serve.energy", span, reqStart)
		writeError(w, http.StatusGatewayTimeout, reqID, "deadline_exceeded",
			"request deadline elapsed before evaluation completed", s.retryAfterHint())
	}
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	reqID := s.nextReqID()
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, reqID, "method_not_allowed", "POST required", 0)
		return
	}
	s.metrics.sweepRequests.Inc()
	reqStart := time.Now()
	span := s.metrics.ob.NextID()

	var req SweepRequest
	if _, err := ReadRequest(w, r, &req); err != nil {
		s.reject(w, reqID, err)
		return
	}
	lig, err := req.Ligand.resolveAtoms()
	if err != nil {
		s.reject(w, reqID, fmt.Errorf("ligand: %w", err))
		return
	}
	var rec *molecule.Molecule
	if req.Receptor != nil {
		if rec, err = req.Receptor.resolveAtoms(); err != nil {
			s.reject(w, reqID, fmt.Errorf("receptor: %w", err))
			return
		}
	}
	if len(req.Poses) == 0 {
		writeError(w, http.StatusBadRequest, reqID, "bad_request", "no poses", 0)
		return
	}
	atoms := lig.N()
	if rec != nil {
		atoms += rec.N()
	}
	if atoms > s.cfg.MaxAtoms {
		writeError(w, http.StatusRequestEntityTooLarge, reqID, "too_large",
			fmt.Sprintf("%d atoms exceeds limit %d", atoms, s.cfg.MaxAtoms), 0)
		return
	}
	opts, err := s.resolveOpts(req.Options)
	if err != nil {
		s.reject(w, reqID, err)
		return
	}
	// Admission: a sweep occupies a queue slot once its batch flushes;
	// apply the same gate (drain, tuned queue limit, shed threshold) up
	// front instead of after the window has been spent coalescing.
	if err := s.admissionCheck(); err != nil {
		s.admissionError(w, reqID, err)
		return
	}
	poses := make([]geom.Rigid, len(req.Poses))
	for i, p := range req.Poses {
		poses[i] = p.ToRigid()
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.deadlineFor(req.DeadlineMS))
	defer cancel()
	wt := &sweepWaiter{
		ctx:      ctx,
		reqID:    reqID,
		poses:    poses,
		queuedAt: time.Now(),
		span:     span,
		out:      make(chan sweepOutcome, 1),
	}
	s.enqueueSweep(rec, lig, opts, req.ExactSurface, wt)

	select {
	case out := <-wt.out:
		s.metrics.stage(s.metrics.queueWait, "serve.queue", span, wt.queuedAt, out.startedAt.Sub(wt.queuedAt))
		s.metrics.request(s.metrics.reqSweep, "serve.sweep", span, reqStart)
		if out.err != nil {
			s.metrics.failed.Inc()
			writeError(w, http.StatusInternalServerError, reqID, "eval_failed", out.err.Error(), 0)
			return
		}
		s.metrics.completed.Inc()
		resp := SweepResponse{
			RequestID:      reqID,
			Poses:          len(out.energies),
			Energies:       out.energies,
			Deltas:         out.deltas,
			ReceptorEnergy: out.eRec,
			LigandEnergy:   out.eLig,
			BatchRequests:  out.batchRequests,
			BatchPoses:     out.batchPoses,
			Cache:          out.cache,
			Timings: TimingsJSON{
				QueueMS:   msBetween(wt.queuedAt, out.startedAt),
				SurfaceMS: out.surfaceMS,
				PrepareMS: out.prepareMS,
				EvalMS:    out.evalMS,
			},
		}
		s.logf("serve: %s sweep poses=%d batch=%d/%d cache=%s", reqID, len(out.energies), out.batchRequests, out.batchPoses, out.cache)
		writeJSON(w, http.StatusOK, resp)
	case <-ctx.Done():
		s.metrics.deadlineMisses.Inc()
		s.metrics.request(s.metrics.reqSweep, "serve.sweep", span, reqStart)
		writeError(w, http.StatusGatewayTimeout, reqID, "deadline_exceeded",
			"request deadline elapsed before the sweep completed", s.retryAfterHint())
	}
}

// reject answers a request refused at the wire boundary (see RejectStatus).
func (s *Server) reject(w http.ResponseWriter, reqID string, err error) {
	status, token := RejectStatus(err)
	writeError(w, status, reqID, token, err.Error(), 0)
}

func (s *Server) admissionError(w http.ResponseWriter, reqID string, err error) {
	switch err {
	case errQueueFull:
		writeError(w, http.StatusTooManyRequests, reqID, "queue_full",
			"submission queue is full", s.retryAfterHint())
	case errShedLoad:
		writeError(w, http.StatusTooManyRequests, reqID, "shed_load",
			"estimated queue wait exceeds the shed threshold", s.retryAfterHint())
	case errDraining:
		writeError(w, http.StatusServiceUnavailable, reqID, "draining",
			"server is shutting down", 0)
	default:
		writeError(w, http.StatusInternalServerError, reqID, "eval_failed", err.Error(), 0)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := http.StatusOK
	state := "ok"
	if s.draining.Load() {
		status = http.StatusServiceUnavailable
		state = "draining"
	}
	writeJSON(w, status, map[string]any{"status": state})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.snapshot())
}

// resolveOpts folds request overrides over the server defaults, refusing
// surface sampling outside the served range.
func (s *Server) resolveOpts(o *OptionsJSON) (evalOpts, error) {
	e := evalOpts{
		bornEps: s.cfg.BornEps,
		epolEps: s.cfg.EpolEps,
		surf:    s.cfg.Surface,
	}
	if o != nil {
		if err := CheckSampling(o.SubdivLevel, o.Degree); err != nil {
			return e, err
		}
		if o.BornEps > 0 {
			e.bornEps = o.BornEps
		}
		if o.EpolEps > 0 {
			e.epolEps = o.EpolEps
		}
		if o.SubdivLevel > 0 {
			e.surf.SubdivLevel = o.SubdivLevel
		}
		if o.Degree > 0 {
			e.surf.Degree = o.Degree
		}
	}
	return e, nil
}

// evalOpts are the resolved per-request evaluation parameters. The
// Born-phase subset (bornEps + surface options) keys the prepared cache;
// epolEps applies at evaluation time only.
type evalOpts struct {
	bornEps float64
	epolEps float64
	surf    surface.Options
}

// cacheKey identifies a prepared problem: molecule content hash (lowercase
// hex, as molecule.HashString) plus every parameter the preprocessing
// depends on.
func cacheKey(hash string, o evalOpts) string {
	return fmt.Sprintf("%s|b%g|s%d|d%d|r%g",
		hash, o.bornEps, o.surf.SubdivLevel, o.surf.Degree, o.surf.RadiusScale)
}

func msBetween(a, b time.Time) float64 {
	if b.Before(a) {
		return 0
	}
	return float64(b.Sub(a).Nanoseconds()) / 1e6
}
