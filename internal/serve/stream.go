package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"time"

	"octgb/internal/engine"
	"octgb/internal/geom"
)

// streamSession is one live /v1/stream session: an engine.Session plus the
// bookkeeping the store needs for LRU and idle eviction. engine.Session is
// not safe for concurrent use, so frames against one session serialize on
// mu (each still occupies a worker slot while it runs — streams share the
// pool's admission control with one-shot requests).
type streamSession struct {
	id      string
	mu      sync.Mutex
	ss      *engine.Session
	created time.Time

	// lastUsed is guarded by the server's sessMu (not mu): eviction scans
	// must read it without blocking behind a long frame evaluation.
	lastUsed time.Time
}

// streamOptions maps resolved request options onto the engine session.
func (s *Server) streamOptions(o evalOpts, so *StreamOptionsJSON) engine.SessionOptions {
	out := engine.SessionOptions{
		Surf: o.surf,
		Eval: engine.Options{
			Threads: s.cfg.Threads,
			BornEps: o.bornEps,
			EpolEps: o.epolEps,
			Observe: s.cfg.Observe,
		},
	}
	if so != nil {
		out.ResweepEvery = so.ResweepEvery
		out.SlackFactor = so.SlackFactor
		out.MinSlack = so.MinSlack
	}
	return out
}

// evictSessionsLocked removes idle-expired sessions and, while the store
// holds at least max live sessions, the least-recently-used one, and
// returns them for the caller to closeSessions once it has released
// sessMu. Called with sessMu held; needRoom is true when a create wants a
// free slot.
func (s *Server) evictSessionsLocked(needRoom bool) (evicted []*streamSession) {
	now := time.Now()
	for id, st := range s.sessions {
		if now.Sub(st.lastUsed) > s.cfg.SessionIdle {
			evicted = append(evicted, st)
			delete(s.sessions, id)
			s.metrics.streamEvictedIdle.Inc()
			s.logf("serve: stream %s evicted (idle %v)", id, now.Sub(st.lastUsed).Round(time.Second))
		}
	}
	for needRoom && len(s.sessions) > 0 && len(s.sessions) >= s.cfg.MaxSessions {
		var oldest *streamSession
		for _, st := range s.sessions {
			if oldest == nil || st.lastUsed.Before(oldest.lastUsed) {
				oldest = st
			}
		}
		evicted = append(evicted, oldest)
		delete(s.sessions, oldest.id)
		s.metrics.streamEvictedLRU.Inc()
		s.logf("serve: stream %s evicted (LRU, cap %d)", oldest.id, s.cfg.MaxSessions)
	}
	return evicted
}

// closeSessions closes sessions already out of the store, each under its
// mu: a frame running on one finishes first, and one run after answers 404.
func closeSessions(sts []*streamSession) {
	for _, st := range sts {
		st.mu.Lock()
		st.ss.Close()
		st.mu.Unlock()
	}
}

// lookupSession touches and returns a live session, or nil.
func (s *Server) lookupSession(id string) *streamSession {
	s.sessMu.Lock()
	evicted := s.evictSessionsLocked(false)
	st := s.sessions[id]
	if st != nil {
		st.lastUsed = time.Now()
	}
	s.sessMu.Unlock()
	closeSessions(evicted)
	return st
}

// handleStreamCreate is POST /v1/stream: build an incremental session for
// the molecule (preprocessing runs on a worker under admission control)
// and register it in the capped session store.
func (s *Server) handleStreamCreate(w http.ResponseWriter, r *http.Request) {
	reqID := s.nextReqID()
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, reqID, "method_not_allowed", "POST required", 0)
		return
	}
	s.metrics.streamCreates.Inc()
	reqStart := time.Now()
	span := s.metrics.ob.NextID()

	var req StreamCreateRequest
	if _, err := ReadRequest(w, r, &req); err != nil {
		s.reject(w, reqID, err)
		return
	}
	mol, err := req.Molecule.resolveAtoms()
	if err != nil {
		s.reject(w, reqID, err)
		return
	}
	if mol.N() > s.cfg.MaxAtoms {
		writeError(w, http.StatusRequestEntityTooLarge, reqID, "too_large",
			fmt.Sprintf("%d atoms exceeds limit %d", mol.N(), s.cfg.MaxAtoms), 0)
		return
	}
	var base *OptionsJSON
	if req.Options != nil {
		base = &req.Options.OptionsJSON
	}
	opts, err := s.resolveOpts(base)
	if err != nil {
		s.reject(w, reqID, err)
		return
	}
	so := s.streamOptions(opts, req.Options)

	ctx, cancel := s.requestContext(r, req.DeadlineMS)
	defer cancel()
	queued := time.Now()
	type createOut struct {
		ss        *engine.Session
		startedAt time.Time
		err       error
	}
	outCh := make(chan createOut, 1)
	if err := s.submit(func() {
		out := createOut{startedAt: time.Now()}
		if ctx.Err() != nil {
			s.metrics.canceled.Inc()
			out.err = ctx.Err()
		} else {
			out.ss, out.err = engine.NewSession(mol, so)
		}
		outCh <- out
	}); err != nil {
		s.admissionError(w, reqID, err)
		return
	}
	select {
	case out := <-outCh:
		s.metrics.stage(s.metrics.queueWait, "serve.queue", span, queued, out.startedAt.Sub(queued))
		s.metrics.request(s.metrics.reqStream, "serve.stream", span, reqStart)
		if out.err != nil {
			s.metrics.failed.Inc()
			writeError(w, http.StatusInternalServerError, reqID, "eval_failed", out.err.Error(), 0)
			return
		}
		st := &streamSession{
			id:      fmt.Sprintf("s-%s-%04d", s.nonce, s.sessSeq.Add(1)),
			ss:      out.ss,
			created: time.Now(),
		}
		// Read before the session is in the store: from then on a close
		// may release it.
		atoms, qpts, energy := out.ss.NumAtoms(), out.ss.NumQPoints(), out.ss.Energy()
		s.sessMu.Lock()
		evicted := s.evictSessionsLocked(true)
		st.lastUsed = time.Now()
		s.sessions[st.id] = st
		s.sessMu.Unlock()
		closeSessions(evicted)
		s.metrics.completed.Inc()
		s.metrics.stage(s.metrics.streamCreate, "serve.stream.create", span, out.startedAt, time.Since(out.startedAt))
		s.logf("serve: %s stream create %s atoms=%d qpts=%d E=%.6g", reqID, st.id, atoms, qpts, energy)
		writeJSON(w, http.StatusOK, StreamCreateResponse{
			RequestID: reqID,
			SessionID: st.id,
			Name:      mol.Name,
			Atoms:     atoms,
			QPoints:   qpts,
			Energy:    energy,
			Timings: TimingsJSON{
				QueueMS:   msBetween(queued, out.startedAt),
				PrepareMS: msBetween(out.startedAt, time.Now()),
			},
		})
	case <-ctx.Done():
		s.metrics.deadlineMisses.Inc()
		s.metrics.request(s.metrics.reqStream, "serve.stream", span, reqStart)
		writeError(w, http.StatusGatewayTimeout, reqID, "deadline_exceeded",
			"request deadline elapsed before the session was built", s.retryAfterHint())
	}
}

// handleStreamSub routes /v1/stream/{id} (DELETE = close) and
// /v1/stream/{id}/frame (POST = step).
func (s *Server) handleStreamSub(w http.ResponseWriter, r *http.Request) {
	reqID := s.nextReqID()
	rest := strings.TrimPrefix(r.URL.Path, "/v1/stream/")
	id, sub, _ := strings.Cut(rest, "/")
	switch {
	case id == "":
		writeError(w, http.StatusBadRequest, reqID, "bad_request", "missing session id", 0)
	case sub == "" && (r.Method == http.MethodDelete || r.Method == http.MethodPost):
		// POST /v1/stream/{id}/close is accepted as DELETE /v1/stream/{id}
		// for clients that cannot issue DELETE.
		s.handleStreamClose(w, r, reqID, id)
	case sub == "close" && r.Method == http.MethodPost:
		s.handleStreamClose(w, r, reqID, id)
	case sub == "frame" && r.Method == http.MethodPost:
		s.handleStreamFrame(w, r, reqID, id)
	default:
		writeError(w, http.StatusMethodNotAllowed, reqID, "method_not_allowed",
			"POST /v1/stream/{id}/frame or DELETE /v1/stream/{id}", 0)
	}
}

// handleStreamFrame is POST /v1/stream/{id}/frame: apply one frame delta
// on a worker and return the updated energy with the frame's dirty-set
// counters. Frames against one session serialize; the per-frame latency
// lands in the mode="stream" histogram.
func (s *Server) handleStreamFrame(w http.ResponseWriter, r *http.Request, reqID, id string) {
	reqStart := time.Now()
	span := s.metrics.ob.NextID()

	// One wire contract with the molecule-bearing bodies: nothing but
	// whitespace after the object, a short body is 400, only an over-limit
	// one is 413.
	var req StreamFrameRequest
	body, err := ReadBody(w, r)
	if err == nil {
		err = json.Unmarshal(body, &req)
	}
	if err != nil {
		s.reject(w, reqID, err)
		return
	}
	st := s.lookupSession(id)
	if st == nil {
		writeError(w, http.StatusNotFound, reqID, "not_found",
			fmt.Sprintf("session %s does not exist (closed or evicted)", id), 0)
		return
	}
	// Counted once the frame holds its session: a close from here on can
	// remove the id from the store but not take the session from the frame.
	s.metrics.streamFrames.Inc()
	delta := engine.FrameDelta{Moves: make([]engine.AtomMove, len(req.Moves))}
	for i, mv := range req.Moves {
		for _, c := range mv.Pos {
			if math.Abs(c) > engine.MaxCoordinate {
				writeError(w, http.StatusBadRequest, reqID, "bad_request",
					fmt.Sprintf("move %d: coordinate %g outside ±%g Å", i, c, engine.MaxCoordinate), 0)
				return
			}
		}
		delta.Moves[i] = engine.AtomMove{Index: mv.I, Pos: geom.V(mv.Pos[0], mv.Pos[1], mv.Pos[2])}
	}

	ctx, cancel := s.requestContext(r, req.DeadlineMS)
	defer cancel()
	queued := time.Now()
	type frameOut struct {
		rep       engine.FrameReport
		startedAt time.Time
		err       error
	}
	outCh := make(chan frameOut, 1)
	if err := s.submit(func() {
		st.mu.Lock()
		defer st.mu.Unlock()
		out := frameOut{startedAt: time.Now()}
		if ctx.Err() != nil {
			s.metrics.canceled.Inc()
			out.err = ctx.Err()
		} else {
			out.rep, out.err = st.ss.Step(delta)
		}
		outCh <- out
	}); err != nil {
		s.admissionError(w, reqID, err)
		return
	}
	select {
	case out := <-outCh:
		s.metrics.stage(s.metrics.queueWait, "serve.queue", span, queued, out.startedAt.Sub(queued))
		s.metrics.request(s.metrics.reqStream, "serve.stream", span, reqStart)
		if out.err != nil {
			if errors.Is(out.err, engine.ErrSessionClosed) {
				// Dispatched before a close and run after it.
				writeError(w, http.StatusNotFound, reqID, "not_found",
					fmt.Sprintf("session %s was closed", id), 0)
				return
			}
			if out.err == context.DeadlineExceeded || out.err == context.Canceled {
				s.metrics.deadlineMisses.Inc()
				writeError(w, http.StatusGatewayTimeout, reqID, "deadline_exceeded",
					"frame deadline elapsed while queued", s.retryAfterHint())
				return
			}
			// Step validates before mutating: a rejected frame leaves the
			// session usable, so the error is the client's.
			s.metrics.failed.Inc()
			writeError(w, http.StatusBadRequest, reqID, "bad_request", out.err.Error(), 0)
			return
		}
		frameD := time.Since(out.startedAt)
		s.metrics.completed.Inc()
		s.metrics.stage(s.metrics.streamFrame, "serve.stream.frame", span, out.startedAt, frameD)
		writeJSON(w, http.StatusOK, StreamFrameResponse{
			RequestID:        reqID,
			SessionID:        id,
			Frame:            out.rep.Frame,
			Energy:           out.rep.Energy,
			MovedAtoms:       out.rep.MovedAtoms,
			DirtyBornRows:    out.rep.DirtyBornRows,
			DirtyEpolDrivers: out.rep.DirtyEpolDrivers,
			PushedRadii:      out.rep.PushedRadii,
			Rederived:        out.rep.Rederived,
			Resweep:          out.rep.Resweep,
			Refreshed:        out.rep.Refreshed,
			Timings: TimingsJSON{
				QueueMS: msBetween(queued, out.startedAt),
				EvalMS:  float64(frameD.Nanoseconds()) / 1e6,
			},
		})
	case <-ctx.Done():
		s.metrics.deadlineMisses.Inc()
		s.metrics.request(s.metrics.reqStream, "serve.stream", span, reqStart)
		writeError(w, http.StatusGatewayTimeout, reqID, "deadline_exceeded",
			"frame deadline elapsed before evaluation completed", s.retryAfterHint())
	}
}

// handleStreamClose removes a session from the store. Closing an unknown
// (or already-evicted) session is a 404 so clients can distinguish a clean
// close from a racing eviction.
func (s *Server) handleStreamClose(w http.ResponseWriter, r *http.Request, reqID, id string) {
	s.sessMu.Lock()
	st := s.sessions[id]
	delete(s.sessions, id)
	s.sessMu.Unlock()
	if st == nil {
		writeError(w, http.StatusNotFound, reqID, "not_found",
			fmt.Sprintf("session %s does not exist (closed or evicted)", id), 0)
		return
	}
	s.metrics.streamCloses.Inc()
	// The close wins the map race and waits for a frame holding st.mu.
	closeSessions([]*streamSession{st})
	frames, energy := st.ss.Frame(), st.ss.Energy() // kept by a closed session
	s.logf("serve: %s stream close %s frames=%d", reqID, id, frames)
	writeJSON(w, http.StatusOK, StreamCloseResponse{
		RequestID: reqID,
		SessionID: id,
		Frames:    frames,
		Energy:    energy,
	})
}

// requestContext derives the request-scoped deadline context every stream
// handler uses.
func (s *Server) requestContext(r *http.Request, deadlineMS int64) (context.Context, context.CancelFunc) {
	return context.WithTimeout(r.Context(), s.deadlineFor(deadlineMS))
}
