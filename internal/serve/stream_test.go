package serve

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"octgb/internal/engine"
	"octgb/internal/geom"
	"octgb/internal/molecule"
	"octgb/internal/surface"
	"octgb/internal/testutil"
)

// jitterMoves builds a deterministic k-frame jitter stream over mol as
// wire-level moves plus the equivalent engine deltas, so tests can replay
// the same trajectory through the HTTP API and a local oracle session.
func jitterMoves(mol *molecule.Molecule, k, movers int, amp float64, seed int64) ([][]MoveJSON, []engine.FrameDelta) {
	rng := rand.New(rand.NewSource(seed))
	pos := make([]geom.Vec3, mol.N())
	for i := range mol.Atoms {
		pos[i] = mol.Atoms[i].Pos
	}
	wire := make([][]MoveJSON, k)
	deltas := make([]engine.FrameDelta, k)
	for f := 0; f < k; f++ {
		for m := 0; m < movers; m++ {
			i := rng.Intn(mol.N())
			d := geom.V((rng.Float64()*2-1)*amp, (rng.Float64()*2-1)*amp, (rng.Float64()*2-1)*amp)
			pos[i] = pos[i].Add(d)
			wire[f] = append(wire[f], MoveJSON{I: i, Pos: [3]float64{pos[i].X, pos[i].Y, pos[i].Z}})
			deltas[f].Moves = append(deltas[f].Moves, engine.AtomMove{Index: i, Pos: pos[i]})
		}
	}
	return wire, deltas
}

// doJSON issues method against url with v as the JSON body (nil for none)
// and decodes the response into out. Returns the HTTP status.
func doJSON(t *testing.T, method, url string, v, out any) int {
	t.Helper()
	if method == http.MethodPost {
		return postJSON(t, url, v, out)
	}
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return resp.StatusCode
}

// frameSession creates a session over a 30-atom molecule and returns a
// function that posts a raw body to its frame endpoint, in process so the
// declared Content-Length may lie (negative: the body's own). The function
// answers the status and the error token; a 200 whose body does not decode
// or whose energy is not finite fails the test it is handed.
func frameSession(t testing.TB, s *Server) func(t testing.TB, body string, declared int64) (int, string) {
	t.Helper()
	create, err := json.Marshal(StreamCreateRequest{Molecule: FromMolecule(molecule.GenerateProtein("frames", 30, 5))})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/stream", strings.NewReader(string(create))))
	var created StreamCreateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("create: %d %s (%v)", rec.Code, rec.Body, err)
	}
	return func(t testing.TB, body string, declared int64) (int, string) {
		t.Helper()
		r := httptest.NewRequest(http.MethodPost, "/v1/stream/"+created.SessionID+"/frame", strings.NewReader(body))
		if declared >= 0 {
			r.ContentLength = declared
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, r)
		var out struct {
			Error  string   `json:"error"`
			Energy *float64 `json:"energy"`
		}
		err := json.Unmarshal(rec.Body.Bytes(), &out)
		if rec.Code == http.StatusOK && (err != nil || out.Energy == nil || math.IsNaN(*out.Energy) || math.IsInf(*out.Energy, 0)) {
			t.Fatalf("frame %q: 200 with body %q (%v)", body, rec.Body, err)
		}
		return rec.Code, out.Error
	}
}

// frameBodies are frame payloads on both sides of the wire contract; the
// status table below pins the named ones and the fuzz target starts from
// all of them.
var frameBodies = []string{
	`{"moves":[]}`, `{"moves":[{"i":0,"pos":[1,2,3]}]} ` + "\n", `{"moves":[{"i":3,"pos":[-4.5,0,1e2]}],"deadline_ms":60000}`,
	`{"moves":[]}x`, `{"moves":[]}{}`, `{"moves":[`, ``, `null`, `[]`, `{"moves":{}}`, `{"moves":[{"i":"0"}]}`,
	`{"moves":[{"i":99,"pos":[0,0,0]}]}`, `{"moves":[{"i":-1,"pos":[0,0,0]}]}`, `{"moves":[{"i":0,"pos":[1,2]}]}`,
	`{"moves":[{"i":1,"pos":[1e300,0,0]}]}`, `{"moves":[{"i":1,"pos":[0,-1.7e308,0]},{"i":2,"pos":[1e155,1e155,1e155]}]}`,
	`{"moves":[{"i":1,"pos":[1e999,0,0]}]}`, `{"moves":[{"i":4,"pos":[1e6,-1e6,0]},{"i":4,"pos":[0,0,0]},{"i":5,"pos":[0,0,0]}]}`,
}

// FuzzStreamFrameBody posts arbitrary bytes as a frame of a live session:
// the answer is a 200 with a finite energy or a typed refusal (400, 413, or
// 504 when the body sets itself a deadline it then misses), never a panic,
// and the session answers a valid frame afterwards.
func FuzzStreamFrameBody(f *testing.F) {
	for _, b := range frameBodies {
		f.Add([]byte(b))
	}
	s := New(Config{Workers: 1, Threads: 1})
	f.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	post := frameSession(f, s)
	f.Fuzz(func(t *testing.T, body []byte) {
		switch status, token := post(t, string(body), -1); status {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusGatewayTimeout:
		default:
			t.Fatalf("%q: status %d %q", body, status, token)
		}
		if status, token := post(t, `{"moves":[]}`, -1); status != http.StatusOK {
			t.Fatalf("valid frame after %q: status %d %q", body, status, token)
		}
	})
}

// TestStreamDegenerateMolecules: POST /v1/stream with one atom, two atoms
// on one point, no charge at all or atoms on one line answers a session
// with a finite energy (or a typed 400), and a frame moving its atoms onto
// each other answers a finite energy too — never a 5xx or a NaN.
func TestStreamDegenerateMolecules(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Threads: 1})
	for name, m := range degenerateMolecules() {
		var created StreamCreateResponse
		code := postJSON(t, ts.URL+"/v1/stream", StreamCreateRequest{Molecule: m}, &created)
		if code == http.StatusBadRequest {
			t.Logf("%s: create refused with 400", name)
			continue
		}
		if code != http.StatusOK || math.IsNaN(created.Energy) || math.IsInf(created.Energy, 0) {
			t.Fatalf("%s: create status %d energy %g", name, code, created.Energy)
		}
		last := m.Atoms[len(m.Atoms)-1]
		var fr StreamFrameResponse
		move := StreamFrameRequest{Moves: []MoveJSON{{I: 0, Pos: [3]float64{last[0], last[1], last[2]}}}}
		if code := postJSON(t, ts.URL+"/v1/stream/"+created.SessionID+"/frame", move, &fr); code != http.StatusOK ||
			math.IsNaN(fr.Energy) || math.IsInf(fr.Energy, 0) {
			t.Fatalf("%s: frame status %d energy %g", name, code, fr.Energy)
		}
		if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/stream/"+created.SessionID, nil, nil); code != http.StatusOK {
			t.Fatalf("%s: close status %d", name, code)
		}
	}
}

// TestStreamLifecycle drives the full /v1/stream arc — create, frames,
// close — and checks every frame's energy against a local engine.Session
// replaying the identical trajectory with the server's default options.
// Sessions evaluate serially in canonical order, so agreement is exact.
func TestStreamLifecycle(t *testing.T) {
	defer testutil.Watchdog(t, 2*time.Minute)()
	s, ts := newTestServer(t, Config{Workers: 2, Threads: 1})

	mol := molecule.GenerateProtein("traj", 240, 17)
	oracle, err := engine.NewSession(mol, engine.SessionOptions{
		Surf: surface.Default(),
		Eval: engine.Options{Threads: 1, BornEps: 0.9, EpolEps: 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}

	var created StreamCreateResponse
	if code := postJSON(t, ts.URL+"/v1/stream", StreamCreateRequest{Molecule: FromMolecule(mol)}, &created); code != http.StatusOK {
		t.Fatalf("create status %d", code)
	}
	if created.SessionID == "" || created.Atoms != mol.N() || created.QPoints != oracle.NumQPoints() {
		t.Fatalf("create response %+v vs oracle atoms=%d qpts=%d", created, mol.N(), oracle.NumQPoints())
	}
	if rd := relDiff(created.Energy, oracle.Energy()); rd > 1e-12 {
		t.Fatalf("initial energy %.17g vs oracle %.17g (rel %.3g)", created.Energy, oracle.Energy(), rd)
	}
	if created.Timings.PrepareMS <= 0 {
		t.Fatalf("create reported no prepare time: %+v", created.Timings)
	}

	wire, deltas := jitterMoves(mol, 6, 3, 0.05, 11)
	frameURL := ts.URL + "/v1/stream/" + created.SessionID + "/frame"
	var last StreamFrameResponse
	for f := range wire {
		rep, err := oracle.Step(deltas[f])
		if err != nil {
			t.Fatal(err)
		}
		if code := postJSON(t, frameURL, StreamFrameRequest{Moves: wire[f]}, &last); code != http.StatusOK {
			t.Fatalf("frame %d status %d", f, code)
		}
		if last.Frame != rep.Frame || last.MovedAtoms != rep.MovedAtoms {
			t.Fatalf("frame %d report %+v vs oracle %+v", f, last, rep)
		}
		if rd := relDiff(last.Energy, rep.Energy); rd > 1e-12 {
			t.Fatalf("frame %d energy %.17g vs oracle %.17g (rel %.3g)", f, last.Energy, rep.Energy, rd)
		}
	}

	// A bad move index is rejected with 400 and leaves the session usable:
	// Step validates before touching any state.
	var bad ErrorResponse
	if code := postJSON(t, frameURL, StreamFrameRequest{Moves: []MoveJSON{{I: mol.N() + 5}}}, &bad); code != http.StatusBadRequest {
		t.Fatalf("out-of-range move: status %d", code)
	}
	if bad.Error != "bad_request" {
		t.Fatalf("out-of-range move: token %q", bad.Error)
	}
	extraWire, extraDelta := jitterMoves(mol, 1, 2, 0.05, 12)
	rep, err := oracle.Step(extraDelta[0])
	if err != nil {
		t.Fatal(err)
	}
	if code := postJSON(t, frameURL, StreamFrameRequest{Moves: extraWire[0]}, &last); code != http.StatusOK {
		t.Fatalf("post-reject frame status %d", code)
	}
	if rd := relDiff(last.Energy, rep.Energy); rd > 1e-12 {
		t.Fatalf("post-reject energy %.17g vs oracle %.17g (rel %.3g)", last.Energy, rep.Energy, rd)
	}

	st := s.snapshot()
	if st.Streaming.Live != 1 || st.Streaming.Created != 1 || st.Streaming.Frames != int64(len(wire))+2 {
		t.Fatalf("streaming stats %+v", st.Streaming)
	}
	if st.Streaming.FrameMSTotal <= 0 {
		t.Fatalf("streaming stats recorded no frame time: %+v", st.Streaming)
	}

	var closed StreamCloseResponse
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/stream/"+created.SessionID, nil, &closed); code != http.StatusOK {
		t.Fatalf("close status %d", code)
	}
	if closed.Frames != rep.Frame || relDiff(closed.Energy, rep.Energy) > 1e-12 {
		t.Fatalf("close response %+v vs oracle frame=%d E=%.17g", closed, rep.Frame, rep.Energy)
	}

	// Closed sessions are gone: frames and a second close both 404.
	var gone ErrorResponse
	if code := postJSON(t, frameURL, StreamFrameRequest{Moves: extraWire[0]}, &gone); code != http.StatusNotFound || gone.Error != "not_found" {
		t.Fatalf("frame after close: status %d token %q", code, gone.Error)
	}
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/stream/"+created.SessionID, nil, &gone); code != http.StatusNotFound {
		t.Fatalf("double close: status %d", code)
	}
	if st := s.snapshot(); st.Streaming.Live != 0 || st.Streaming.Closed != 1 {
		t.Fatalf("post-close streaming stats %+v", st.Streaming)
	}
}

// TestStreamIgnoresRetiredOptions: a session has no parameters of its own
// on the wire. A create that still sends one of the retired session fields
// — each at a value that would change what a frame does — gets the engine
// defaults: its frames answer the same energy bits, push the same radii and
// re-derive the same drivers as a session created without the field, and
// no frame carries a "resweep" member.
func TestStreamIgnoresRetiredOptions(t *testing.T) {
	defer testutil.Watchdog(t, 2*time.Minute)()
	_, ts := newTestServer(t, Config{Workers: 2, Threads: 1})

	mol := molecule.GenerateProtein("retired-wire", 240, 19)
	wire, _ := jitterMoves(mol, 6, 4, 0.12, 23)
	// stream creates a session with options and returns its frames as sent.
	stream := func(t *testing.T, options map[string]any) []StreamFrameResponse {
		t.Helper()
		var created StreamCreateResponse
		req := map[string]any{"molecule": FromMolecule(mol)}
		if options != nil {
			req["options"] = options
		}
		if code := postJSON(t, ts.URL+"/v1/stream", req, &created); code != http.StatusOK {
			t.Fatalf("create %v: status %d", options, code)
		}
		frames := make([]StreamFrameResponse, len(wire))
		for f := range wire {
			var raw json.RawMessage
			var members map[string]any
			url := ts.URL + "/v1/stream/" + created.SessionID + "/frame"
			if code := postJSON(t, url, StreamFrameRequest{Moves: wire[f]}, &raw); code != http.StatusOK {
				t.Fatalf("%v, frame %d: status %d", options, f, code)
			}
			if err := errors.Join(json.Unmarshal(raw, &frames[f]), json.Unmarshal(raw, &members)); err != nil {
				t.Fatal(err)
			}
			if _, ok := members["resweep"]; ok {
				t.Fatalf("%v, frame %d: the response carries a resweep member", options, f)
			}
		}
		return frames
	}
	want := stream(t, nil)
	pushed, rederived := 0, 0
	for _, fr := range want {
		pushed += fr.PushedRadii
		rederived += fr.Rederived
	}
	if pushed == 0 || rederived == 0 {
		t.Fatalf("the stream pushed %d radii and re-derived %d drivers: it cannot tell a retired field from the default", pushed, rederived)
	}
	for _, c := range []struct {
		field string
		value any
	}{
		{"radius_tolerance", 1e300},
		{"resweep_every", 1},
		{"slack_factor", 1e300},
		{"min_slack", 1e300},
	} {
		t.Run(c.field, func(t *testing.T) {
			for f, got := range stream(t, map[string]any{c.field: c.value}) {
				if math.Float64bits(got.Energy) != math.Float64bits(want[f].Energy) ||
					got.PushedRadii != want[f].PushedRadii || got.Rederived != want[f].Rederived {
					t.Fatalf("frame %d: E=%.17g pushed %d rederived %d; without the field E=%.17g pushed %d rederived %d",
						f, got.Energy, got.PushedRadii, got.Rederived, want[f].Energy, want[f].PushedRadii, want[f].Rederived)
				}
			}
		})
	}
}

// TestStreamEviction exercises both store-eviction paths: LRU when a
// create needs room past MaxSessions, and idle expiry after SessionIdle.
func TestStreamEviction(t *testing.T) {
	defer testutil.Watchdog(t, 2*time.Minute)()
	s, ts := newTestServer(t, Config{Workers: 2, Threads: 1, MaxSessions: 2, SessionIdle: 30 * time.Second})

	mol := molecule.GenerateProtein("evict", 150, 3)
	ids := make([]string, 3)
	for i := range ids {
		var resp StreamCreateResponse
		if code := postJSON(t, ts.URL+"/v1/stream", StreamCreateRequest{Molecule: FromMolecule(mol)}, &resp); code != http.StatusOK {
			t.Fatalf("create %d status %d", i, code)
		}
		ids[i] = resp.SessionID
		time.Sleep(5 * time.Millisecond) // order lastUsed so the LRU victim is ids[0]
	}

	st := s.snapshot()
	if st.Streaming.Live != 2 || st.Streaming.EvictedLRU != 1 {
		t.Fatalf("after 3 creates with cap 2: %+v", st.Streaming)
	}
	var errResp ErrorResponse
	if code := postJSON(t, ts.URL+"/v1/stream/"+ids[0]+"/frame", StreamFrameRequest{}, &errResp); code != http.StatusNotFound {
		t.Fatalf("evicted session frame: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/stream/"+ids[2]+"/frame", StreamFrameRequest{}, nil); code != http.StatusOK {
		t.Fatalf("surviving session frame: status %d", code)
	}

	// Idle expiry: age every live session past the threshold, then any
	// store access sweeps them out.
	s.sessMu.Lock()
	for _, live := range s.sessions {
		live.lastUsed = time.Now().Add(-time.Minute)
	}
	s.sessMu.Unlock()
	if code := postJSON(t, ts.URL+"/v1/stream/"+ids[2]+"/frame", StreamFrameRequest{}, &errResp); code != http.StatusNotFound {
		t.Fatalf("idle-expired session frame: status %d", code)
	}
	if st := s.snapshot(); st.Streaming.Live != 0 || st.Streaming.EvictedIdle != 2 {
		t.Fatalf("after idle sweep: %+v", st.Streaming)
	}
}

// TestStreamAdmissionAndMethods covers the edge responses: draining 503,
// method/path validation, and oversized molecules.
func TestStreamAdmissionAndMethods(t *testing.T) {
	defer testutil.Watchdog(t, time.Minute)()
	s, ts := newTestServer(t, Config{Workers: 1, Threads: 1, MaxAtoms: 50})

	var errResp ErrorResponse
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/stream", nil, &errResp); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/stream: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/stream/", StreamFrameRequest{}, &errResp); code != http.StatusBadRequest {
		t.Fatalf("missing session id: status %d", code)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/stream/s-x-0001/frame", nil, &errResp); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET frame: status %d", code)
	}

	// Frame bodies obey the wire contract of every other body, and a
	// refused frame leaves the session usable.
	post := frameSession(t, s)
	for _, tc := range []struct {
		name, body string
		declared   int64
		status     int
		token      string
	}{
		{"valid", `{"moves":[]}`, -1, 200, ""},
		{"trailing whitespace", `{"moves":[{"i":0,"pos":[1,2,3]}]} ` + "\n", -1, 200, ""},
		{"trailing bytes", `{"moves":[]}x`, -1, 400, "bad_request"},
		{"second value", `{"moves":[]}{}`, -1, 400, "bad_request"},
		{"short body", `{"moves":[`, 64, 400, "bad_request"},
		{"declared over the limit", ``, maxBodyBytes + 1, 413, "too_large"},
		{"move index out of range", `{"moves":[{"i":99,"pos":[0,0,0]}]}`, -1, 400, "bad_request"},
		{"coordinate past the bound", `{"moves":[{"i":1,"pos":[1e300,0,0]}]}`, -1, 400, "bad_request"},
		{"coordinates on the bound", `{"moves":[{"i":4,"pos":[1e6,-1e6,0]}]}`, -1, 200, ""},
		{"valid after the refusals", `{"moves":[]}`, -1, 200, ""},
	} {
		if status, token := post(t, tc.body, tc.declared); status != tc.status || token != tc.token {
			t.Errorf("frame, %s: %d %q, want %d %q", tc.name, status, token, tc.status, tc.token)
		}
	}

	big := molecule.GenerateProtein("big", 80, 1)
	if code := postJSON(t, ts.URL+"/v1/stream", StreamCreateRequest{Molecule: FromMolecule(big)}, &errResp); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized create: status %d", code)
	}
	if errResp.Error != "too_large" {
		t.Fatalf("oversized create token %q", errResp.Error)
	}

	s.draining.Store(true)
	if code := postJSON(t, ts.URL+"/v1/stream", StreamCreateRequest{}, &errResp); code != http.StatusServiceUnavailable {
		t.Fatalf("draining create: status %d", code)
	}
	if errResp.Error != "draining" {
		t.Fatalf("draining token %q", errResp.Error)
	}
	s.draining.Store(false)
}

// TestComposeScratchSteadyStateAllocs pins the pooled compose path: once a
// ComposeScratch is warm, a pose composition must not grow the scratch —
// the only per-pose allocations left are the posed molecule and merged
// complex Compose hands back to the caller. The pin guards the sync.Pool
// reuse in runSweep against regressions that silently reintroduce a
// per-pose q-point buffer or tree allocation.
func TestComposeScratchSteadyStateAllocs(t *testing.T) {
	defer testutil.Watchdog(t, time.Minute)()
	rec := molecule.GenerateProtein("rec", 160, 5)
	lig := molecule.GenerateProtein("lig", 60, 6)
	opt := surface.Default()
	recQ := surface.Sample(rec, opt)
	ligQ := surface.Sample(lig, opt)

	sc := composeScratchPool.Get().(*surface.ComposeScratch)
	defer composeScratchPool.Put(sc)
	pc := surface.NewPoseComposer(rec, recQ, lig, ligQ, opt, sc)
	pose := geom.Translation(geom.V(40, 0, 0))
	if _, _, err := pc.Compose("warm", pose); err != nil {
		t.Fatal(err)
	}

	allocs := testing.AllocsPerRun(50, func() {
		if _, _, err := pc.Compose("steady", pose); err != nil {
			t.Fatal(err)
		}
	})
	// Transform + Merge return fresh molecules (2 headers + 2 atom slices);
	// anything past a small constant means the scratch stopped being reused.
	const maxAllocs = 8
	if allocs > maxAllocs {
		t.Fatalf("steady-state Compose: %.1f allocs/op, want <= %d (scratch reuse broken?)", allocs, maxAllocs)
	}
	t.Logf("steady-state Compose: %.1f allocs/op", allocs)
}
