package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"octgb/internal/engine"
	"octgb/internal/molecule"
	"octgb/internal/surface"
	"octgb/internal/testutil"
)

// newTestServer builds a Server, mounts it on an httptest listener and
// registers cleanup (drain + goroutine accounting is up to the caller).
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

// postJSON posts v and decodes the response body into out (which may be
// nil). Returns the HTTP status.
func postJSON(t *testing.T, url string, v, out any) int {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
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

func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if m := math.Max(math.Abs(a), math.Abs(b)); m > 0 {
		return d / m
	}
	return d
}

// TestServerEnergyColdWarm: a cold request builds (cache=miss), matches the
// library's one-shot engine result, and the warm repeat is a cache hit with
// the identical energy and no surface/prepare cost.
func TestServerEnergyColdWarm(t *testing.T) {
	defer testutil.Watchdog(t, 2*time.Minute)()
	s, ts := newTestServer(t, Config{Workers: 2, Threads: 2})

	mol := molecule.GenerateProtein("cw", 220, 11)
	want, err := engine.RunReal(engine.NewProblem(mol, surface.Default()), engine.OctCilk,
		engine.Options{Threads: 2, BornEps: 0.9, EpolEps: 0.9})
	if err != nil {
		t.Fatal(err)
	}

	req := EnergyRequest{Molecule: FromMolecule(mol), IncludeRadii: true}
	var cold EnergyResponse
	if code := postJSON(t, ts.URL+"/v1/energy", req, &cold); code != http.StatusOK {
		t.Fatalf("cold status %d", code)
	}
	if cold.Cache != string(sourceBuild) {
		t.Fatalf("cold cache = %q, want %q", cold.Cache, sourceBuild)
	}
	if rd := relDiff(cold.Energy, want.Energy); rd > 1e-12 {
		t.Fatalf("cold energy %.17g vs engine %.17g (rel %.3g)", cold.Energy, want.Energy, rd)
	}
	if len(cold.BornRadii) != mol.N() {
		t.Fatalf("born radii: %d values for %d atoms", len(cold.BornRadii), mol.N())
	}
	if cold.Timings.SurfaceMS <= 0 || cold.Timings.PrepareMS <= 0 {
		t.Fatalf("cold build reported no surface/prepare time: %+v", cold.Timings)
	}
	if cold.RequestID == "" || cold.Engine != engine.OctCilk.String() {
		t.Fatalf("response metadata: id=%q engine=%q", cold.RequestID, cold.Engine)
	}

	var warm EnergyResponse
	if code := postJSON(t, ts.URL+"/v1/energy", req, &warm); code != http.StatusOK {
		t.Fatalf("warm status %d", code)
	}
	if warm.Cache != string(sourceHit) {
		t.Fatalf("warm cache = %q, want %q", warm.Cache, sourceHit)
	}
	// Same prepared problem, but work-stealing perturbs the reduction
	// order between evaluations — agreement is last-ulp, not bitwise.
	if rd := relDiff(warm.Energy, cold.Energy); rd > 1e-12 {
		t.Fatalf("warm energy %.17g vs cold %.17g (rel %.3g)", warm.Energy, cold.Energy, rd)
	}
	if warm.Timings.SurfaceMS != 0 || warm.Timings.PrepareMS != 0 {
		t.Fatalf("warm request paid preprocessing: %+v", warm.Timings)
	}

	var st StatsSnapshot
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Cache.Builds != 1 || st.Cache.Hits != 1 || st.Requests.Completed != 2 {
		t.Fatalf("stats: builds=%d hits=%d completed=%d", st.Cache.Builds, st.Cache.Hits, st.Requests.Completed)
	}
	_ = s
}

// TestServerEnergyCoalesced: concurrent identical requests trigger exactly
// one build; everyone gets the same energy.
func TestServerEnergyCoalesced(t *testing.T) {
	defer testutil.Watchdog(t, 2*time.Minute)()
	s, ts := newTestServer(t, Config{Workers: 4, Threads: 1})

	mol := molecule.GenerateProtein("co", 180, 3)
	req := EnergyRequest{Molecule: FromMolecule(mol)}

	const n = 6
	var wg sync.WaitGroup
	got := make([]EnergyResponse, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i] = postJSON(t, ts.URL+"/v1/energy", req, &got[i])
		}(i)
	}
	wg.Wait()

	misses := 0
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		if got[i].Energy != got[0].Energy {
			t.Fatalf("request %d: energy %.17g != %.17g", i, got[i].Energy, got[0].Energy)
		}
		if got[i].Cache == string(sourceBuild) {
			misses++
		}
	}
	if misses != 1 {
		t.Fatalf("%d requests reported cache=miss, want exactly 1 (singleflight)", misses)
	}
	if b := s.metrics.cacheBuilds.Value(); b != 1 {
		t.Fatalf("cache ran %d builds, want 1", b)
	}
}

// TestServerSweep: concurrent same-pair sweeps coalesce into one batch, the
// deltas are consistent with the isolated energies, and for pure
// translations the default composed surface matches exact re-sampling.
func TestServerSweep(t *testing.T) {
	defer testutil.Watchdog(t, 4*time.Minute)()
	s, ts := newTestServer(t, Config{Workers: 2, Threads: 2, BatchWindow: 300 * time.Millisecond})

	rec := molecule.GenerateProtein("rec", 150, 7)
	lig := molecule.GenerateProtein("lig", 60, 8)
	// Overlapping contact poses (translation only → composition is exact).
	off := 0.6 * rec.Bounds().HalfDiagonal()
	mkReq := func(ts ...[3]float64) SweepRequest {
		req := SweepRequest{Receptor: ptr(FromMolecule(rec)), Ligand: FromMolecule(lig)}
		for _, v := range ts {
			req.Poses = append(req.Poses, PoseJSON{T: v})
		}
		return req
	}
	reqA := mkReq([3]float64{off, 0, 0}, [3]float64{0, off, 0})
	reqB := mkReq([3]float64{0, 0, off})

	var wg sync.WaitGroup
	var respA, respB SweepResponse
	var codeA, codeB int
	wg.Add(2)
	go func() { defer wg.Done(); codeA = postJSON(t, ts.URL+"/v1/sweep", reqA, &respA) }()
	go func() { defer wg.Done(); codeB = postJSON(t, ts.URL+"/v1/sweep", reqB, &respB) }()
	wg.Wait()
	if codeA != http.StatusOK || codeB != http.StatusOK {
		t.Fatalf("sweep statuses %d/%d", codeA, codeB)
	}

	// Both rode one coalesced batch of 2 requests / 3 poses.
	for _, r := range []SweepResponse{respA, respB} {
		if r.BatchRequests != 2 || r.BatchPoses != 3 {
			t.Fatalf("batch = %d requests / %d poses, want 2/3", r.BatchRequests, r.BatchPoses)
		}
	}
	if b := s.metrics.batchesRun.Value(); b != 1 {
		t.Fatalf("ran %d batches, want 1", b)
	}
	if len(respA.Energies) != 2 || len(respB.Energies) != 1 {
		t.Fatalf("pose counts: %d/%d", len(respA.Energies), len(respB.Energies))
	}
	// Isolated energies are shared across the batch; deltas are consistent.
	if respA.LigandEnergy != respB.LigandEnergy || respA.ReceptorEnergy != respB.ReceptorEnergy {
		t.Fatalf("batch members disagree on isolated energies")
	}
	for i, e := range respA.Energies {
		want := e - respA.ReceptorEnergy - respA.LigandEnergy
		if respA.Deltas[i] != want {
			t.Fatalf("delta[%d] = %.17g, want %.17g", i, respA.Deltas[i], want)
		}
	}

	// Translation poses: composed surface == re-sampled surface.
	exact := reqB
	exact.ExactSurface = true
	var respE SweepResponse
	if code := postJSON(t, ts.URL+"/v1/sweep", exact, &respE); code != http.StatusOK {
		t.Fatalf("exact sweep status %d", code)
	}
	if rd := relDiff(respE.Energies[0], respB.Energies[0]); rd > 1e-12 {
		t.Fatalf("composed %.17g vs exact %.17g (rel %.3g)", respB.Energies[0], respE.Energies[0], rd)
	}

	// A receptor-free sweep returns absolute energies, no deltas.
	free := SweepRequest{Ligand: FromMolecule(lig), Poses: []PoseJSON{{T: [3]float64{1, 2, 3}}}}
	var respF SweepResponse
	if code := postJSON(t, ts.URL+"/v1/sweep", free, &respF); code != http.StatusOK {
		t.Fatalf("free sweep status %d", code)
	}
	if len(respF.Energies) != 1 || respF.Deltas != nil {
		t.Fatalf("receptor-free sweep: energies=%d deltas=%v", len(respF.Energies), respF.Deltas)
	}
	// Rigid-motion invariance: posed ligand energy equals its isolated energy.
	if rd := relDiff(respF.Energies[0], respF.LigandEnergy); rd > 1e-12 {
		t.Fatalf("translated ligand energy drifted: %.17g vs %.17g", respF.Energies[0], respF.LigandEnergy)
	}
}

func ptr[T any](v T) *T { return &v }

// TestServerAdmission: a saturated queue yields typed 429s with a
// Retry-After hint; both endpoints reject.
func TestServerAdmission(t *testing.T) {
	defer testutil.Watchdog(t, time.Minute)()
	s, ts := newTestServer(t, Config{Workers: 1, Threads: 1, MaxQueue: 1})

	// Occupy the single worker, then fill the single queue slot.
	block := make(chan struct{})
	running := make(chan struct{})
	if err := s.submit(func() { close(running); <-block }); err != nil {
		t.Fatal(err)
	}
	<-running
	if err := s.submit(func() {}); err != nil {
		t.Fatal(err)
	}

	mol := molecule.GenerateProtein("adm", 40, 1)
	var e ErrorResponse
	if code := postJSON(t, ts.URL+"/v1/energy", EnergyRequest{Molecule: FromMolecule(mol)}, &e); code != http.StatusTooManyRequests {
		t.Fatalf("energy status %d, want 429", code)
	}
	if e.Error != "queue_full" || e.RetryAfterMS <= 0 {
		t.Fatalf("energy rejection: %+v", e)
	}
	sw := SweepRequest{Ligand: FromMolecule(mol), Poses: []PoseJSON{{}}}
	if code := postJSON(t, ts.URL+"/v1/sweep", sw, &e); code != http.StatusTooManyRequests {
		t.Fatalf("sweep status %d, want 429", code)
	}
	if e.Error != "queue_full" {
		t.Fatalf("sweep rejection: %+v", e)
	}
	if got := s.metrics.rejectedQueueFull.Value(); got != 2 {
		t.Fatalf("rejected_queue_full = %d, want 2", got)
	}
	close(block)
}

// TestServerDeadline: a request whose deadline elapses while queued gets
// 504 and the queued work is abandoned without evaluating.
func TestServerDeadline(t *testing.T) {
	defer testutil.Watchdog(t, time.Minute)()
	s, ts := newTestServer(t, Config{Workers: 1, Threads: 1})

	block := make(chan struct{})
	running := make(chan struct{})
	if err := s.submit(func() { close(running); <-block }); err != nil {
		t.Fatal(err)
	}
	<-running

	mol := molecule.GenerateProtein("dl", 40, 2)
	req := EnergyRequest{Molecule: FromMolecule(mol), DeadlineMS: 30}
	var e ErrorResponse
	if code := postJSON(t, ts.URL+"/v1/energy", req, &e); code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", code)
	}
	if e.Error != "deadline_exceeded" {
		t.Fatalf("error token %q", e.Error)
	}
	close(block)

	// The abandoned task must be discarded by the worker without building.
	deadline := time.Now().Add(5 * time.Second)
	for s.metrics.canceled.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.metrics.canceled.Value() != 1 {
		t.Fatalf("canceled = %d, want 1", s.metrics.canceled.Value())
	}
	if b := s.metrics.cacheBuilds.Value(); b != 0 {
		t.Fatalf("expired request still built (%d builds)", b)
	}
	if s.metrics.deadlineMisses.Value() != 1 {
		t.Fatalf("deadline_misses = %d, want 1", s.metrics.deadlineMisses.Value())
	}
}

// TestServerBadRequests: malformed input gets typed 4xx, never a panic or
// a queued evaluation.
func TestServerBadRequests(t *testing.T) {
	defer testutil.Watchdog(t, time.Minute)()
	s, ts := newTestServer(t, Config{Workers: 1, Threads: 1, MaxAtoms: 50})

	get, err := http.Get(ts.URL + "/v1/energy")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d, want 405", get.StatusCode)
	}

	resp, err := http.Post(ts.URL+"/v1/energy", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	var e ErrorResponse
	_ = json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || e.Error != "bad_request" {
		t.Fatalf("bad JSON: status %d token %q", resp.StatusCode, e.Error)
	}

	if code := postJSON(t, ts.URL+"/v1/energy", EnergyRequest{}, &e); code != http.StatusBadRequest {
		t.Fatalf("empty molecule: status %d", code)
	}

	big := molecule.GenerateProtein("big", 60, 1) // over MaxAtoms=50
	if code := postJSON(t, ts.URL+"/v1/energy", EnergyRequest{Molecule: FromMolecule(big)}, &e); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized: status %d", code)
	}
	if e.Error != "too_large" {
		t.Fatalf("oversized token %q", e.Error)
	}

	small := molecule.GenerateProtein("s", 10, 1)
	if code := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{Ligand: FromMolecule(small)}, &e); code != http.StatusBadRequest {
		t.Fatalf("no poses: status %d", code)
	}

	// Surface sampling outside the served range is refused where options
	// are resolved, on every endpoint that takes them, before any work is
	// queued: a level multiplies the q-points by four and its template is
	// never freed. Everything inside the range is served.
	pair := MoleculeJSON{Atoms: [][5]float64{{0, 0, 0, 1.5, 0.1}, {3, 0, 0, 1.5, -0.1}}}
	for _, o := range []OptionsJSON{{SubdivLevel: 12}, {SubdivLevel: 5}, {SubdivLevel: -1}, {Degree: 9}, {Degree: 6}, {Degree: -1}} {
		o := o
		for path, body := range map[string]any{
			"/v1/energy": EnergyRequest{Molecule: pair, Options: &o},
			"/v1/sweep":  SweepRequest{Ligand: pair, Poses: []PoseJSON{{T: [3]float64{9, 0, 0}}}, Options: &o},
			"/v1/stream": StreamCreateRequest{Molecule: pair, Options: &o},
		} {
			if code := postJSON(t, ts.URL+path, body, &e); code != http.StatusBadRequest || e.Error != "bad_request" {
				t.Errorf("%s with %+v: %d %q, want 400 bad_request", path, o, code, e.Error)
			}
		}
	}
	if b, c := s.metrics.cacheBuilds.Value(), s.metrics.completed.Value(); b != 0 || c != 0 {
		t.Errorf("refused sampling options built %d entries and completed %d requests", b, c)
	}
	for level := 0; level <= maxSubdivLevel; level++ {
		for degree := 1; degree <= maxDegree; degree++ {
			o := OptionsJSON{SubdivLevel: level, Degree: degree}
			var er EnergyResponse
			if code := postJSON(t, ts.URL+"/v1/energy", EnergyRequest{Molecule: pair, Options: &o}, &er); code != http.StatusOK || math.IsNaN(er.Energy) {
				t.Errorf("subdiv_level %d degree %d: status %d energy %v", level, degree, code, er.Energy)
			}
		}
	}
}

// TestServerDrain is the graceful-shutdown contract: an in-flight request
// completes with 200, new requests are rejected with 503, Shutdown returns
// cleanly and no goroutines leak.
func TestServerDrain(t *testing.T) {
	defer testutil.Watchdog(t, 2*time.Minute)()
	baseline := runtime.NumGoroutine()

	s := New(Config{Workers: 2, Threads: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	mol := molecule.GenerateProtein("drain", 400, 5)
	inflight := make(chan struct{})
	var resp EnergyResponse
	var code int
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Signal just before the POST; the handler will be mid-flight (or at
		// worst mid-queue — both must survive the drain).
		close(inflight)
		code = postJSON(t, ts.URL+"/v1/energy", EnergyRequest{Molecule: FromMolecule(mol)}, &resp)
	}()
	<-inflight
	// Wait until the request is actually being evaluated.
	for i := 0; i < 5000 && s.metrics.inflight.Load() == 0; i++ {
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	<-done
	if code != http.StatusOK {
		t.Fatalf("in-flight request got %d during drain, want 200", code)
	}
	if resp.Energy == 0 {
		t.Fatalf("in-flight request returned no energy")
	}

	// The drained server refuses new work with a typed 503.
	var e ErrorResponse
	if code := postJSON(t, ts.URL+"/v1/energy", EnergyRequest{Molecule: FromMolecule(mol)}, &e); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain status %d, want 503", code)
	}
	if e.Error != "draining" {
		t.Fatalf("post-drain token %q", e.Error)
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz status %d while draining, want 503", hz.StatusCode)
	}

	ts.Close()
	if n := testutil.WaitGoroutines(baseline, 10*time.Second); n > baseline {
		t.Fatalf("goroutine leak after drain: %d live, baseline %d", n, baseline)
	}
}

// TestServerStartAddr: Start binds a real listener; /healthz answers over
// TCP and Shutdown closes it.
func TestServerStartAddr(t *testing.T) {
	defer testutil.Watchdog(t, time.Minute)()
	s := New(Config{Addr: "127.0.0.1:0", Workers: 1, Threads: 1})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()
	if addr == "" {
		t.Fatal("no bound address")
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/healthz", addr))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := http.Get(fmt.Sprintf("http://%s/healthz", addr)); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

// TestServerEnergyByHash: a hash without atoms is served from the prepared
// entry of exactly that molecule and those preparation options — never
// another entry's energy — and otherwise answers 404 unknown_molecule
// without building or inserting anything; a hash that arrives with atoms is
// checked against them; one that arrives while its entry is being built
// joins the build.
func TestServerEnergyByHash(t *testing.T) {
	defer testutil.Watchdog(t, 2*time.Minute)()
	s, ts := newTestServer(t, Config{Workers: 4, Threads: 1})

	mol := molecule.GenerateProtein("byhash", 120, 17)
	only := func(o *OptionsJSON) EnergyRequest {
		return EnergyRequest{Molecule: MoleculeJSON{Name: "asked-by-hash", Hash: mol.HashString()}, Options: o, IncludeRadii: true}
	}
	var e ErrorResponse
	if code := postJSON(t, ts.URL+"/v1/energy", only(nil), &e); code != http.StatusNotFound || e.Error != UnknownMolecule {
		t.Fatalf("hash of a molecule never sent: %d %q, want 404 %s", code, e.Error, UnknownMolecule)
	}
	if entries, _ := s.cache.stats(); entries != 0 || s.metrics.cacheBuilds.Value() != 0 || s.metrics.cacheMisses.Value() != 0 {
		t.Fatalf("a hash-only request touched the cache: entries=%d builds=%d misses=%d", entries, s.metrics.cacheBuilds.Value(), s.metrics.cacheMisses.Value())
	}

	var full EnergyResponse
	if code := postJSON(t, ts.URL+"/v1/energy", EnergyRequest{Molecule: FromMolecule(mol)}, &full); code != http.StatusOK {
		t.Fatalf("full request: status %d", code)
	}
	var got EnergyResponse
	if code := postJSON(t, ts.URL+"/v1/energy", only(nil), &got); code != http.StatusOK {
		t.Fatalf("hash of a prepared molecule: status %d", code)
	}
	if got.Cache != string(sourceHit) || got.Energy != full.Energy || got.Atoms != mol.N() || got.Name != "asked-by-hash" || len(got.BornRadii) != mol.N() {
		t.Errorf("by hash: %+v; by atoms energy %.17g", got, full.Energy)
	}
	// ε_E is an evaluation-time knob: same entry, another energy.
	if code := postJSON(t, ts.URL+"/v1/energy", only(&OptionsJSON{EpolEps: 0.4}), &got); code != http.StatusOK || got.Cache != string(sourceHit) || got.Energy == full.Energy {
		t.Errorf("by hash, other epol_eps: status %d cache %q energy %.17g (default %.17g)", code, got.Cache, got.Energy, full.Energy)
	}
	// There is one arithmetic: a body that still carries the deleted
	// "precision" option is answered from the same entry with the same bits.
	hits, builds := s.metrics.cacheHits.Value(), s.metrics.cacheBuilds.Value()
	var tiered EnergyResponse
	if code := postJSON(t, ts.URL+"/v1/energy", map[string]any{
		"molecule": FromMolecule(mol), "options": map[string]string{"precision": "f32"},
	}, &tiered); code != http.StatusOK || math.Float64bits(tiered.Energy) != math.Float64bits(full.Energy) {
		t.Errorf("with the deleted precision option: status %d energy %.17g, without %.17g", code, tiered.Energy, full.Energy)
	}
	if h, b := s.metrics.cacheHits.Value(), s.metrics.cacheBuilds.Value(); h != hits+1 || b != builds {
		t.Errorf("the deleted precision option cost %d hits and %d builds, want 1 and 0", h-hits, b-builds)
	}
	// Preparation options key the entry: the same hash under another ε_B
	// or surface is a molecule this server does not hold.
	for name, o := range map[string]*OptionsJSON{
		"born_eps": {BornEps: 0.5}, "subdiv_level": {SubdivLevel: 2}, "degree": {Degree: 3},
	} {
		if code := postJSON(t, ts.URL+"/v1/energy", only(o), &e); code != http.StatusNotFound || e.Error != UnknownMolecule {
			t.Errorf("by hash, other %s: %d %q, want 404 %s", name, code, e.Error, UnknownMolecule)
		}
	}
	if entries, _ := s.cache.stats(); entries != 1 || s.metrics.cacheBuilds.Value() != 1 {
		t.Errorf("entries=%d builds=%d after the hash-only misses, want 1 and 1", entries, s.metrics.cacheBuilds.Value())
	}

	// A hash is never trusted over atoms that arrive with it.
	other := molecule.GenerateProtein("other", 40, 18)
	liar := EnergyRequest{Molecule: FromMolecule(other)}
	liar.Molecule.Hash = mol.HashString()
	if code := postJSON(t, ts.URL+"/v1/energy", liar, &e); code != http.StatusBadRequest || e.Error != "bad_request" {
		t.Errorf("atoms under another molecule's hash: %d %q, want 400 bad_request", code, e.Error)
	}
	liar.Molecule.Hash = other.HashString()
	if code := postJSON(t, ts.URL+"/v1/energy", liar, &got); code != http.StatusOK || got.Cache != string(sourceBuild) {
		t.Errorf("atoms under their own hash: status %d cache %q", code, got.Cache)
	}

	// In flight: hold a build open, ask for its key by hash, release.
	slow := molecule.GenerateProtein("slow", 60, 19)
	defaults, _ := s.resolveOpts(nil)
	key := cacheKey(slow.HashString(), defaults)
	release := make(chan struct{})
	buildDone := make(chan error, 1)
	go func() {
		_, _, err := s.cache.get(key, func() (*built, error) {
			<-release
			return s.buildPrepared(slow, defaults)
		})
		buildDone <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		s.cache.mu.Lock()
		_, flying := s.cache.flight[key]
		s.cache.mu.Unlock()
		if flying {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("build never took flight")
		}
	}
	joined := make(chan int, 1)
	var coalesced EnergyResponse
	go func() {
		joined <- postJSON(t, ts.URL+"/v1/energy", EnergyRequest{Molecule: MoleculeJSON{Hash: slow.HashString()}}, &coalesced)
	}()
	for deadline := time.Now().Add(10 * time.Second); s.metrics.cacheCoalesced.Value() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("hash-only request never joined the build in flight")
		}
	}
	close(release)
	if err := <-buildDone; err != nil {
		t.Fatal(err)
	}
	if code := <-joined; code != http.StatusOK || coalesced.Cache != string(sourceWait) || coalesced.Atoms != slow.N() {
		t.Errorf("hash-only during the build: status %d %+v, want 200 coalesced", code, coalesced)
	}
}

// TestDeletedApproximateMathIsIgnored: there is one math mode, so a body
// that still carries the deleted "approximate_math" option is an unknown
// member, ignored like any other: /v1/energy, /v1/sweep and /v1/stream
// (create and frame) answer the same energy bits with it as without it.
func TestDeletedApproximateMathIsIgnored(t *testing.T) {
	defer testutil.Watchdog(t, 2*time.Minute)()
	_, ts := newTestServer(t, Config{Workers: 2, Threads: 1})
	mol := molecule.GenerateProtein("onemath", 400, 23)
	wire, _ := jitterMoves(mol, 1, 5, 0.2, 9)
	same := func(what string, with, without float64) {
		t.Helper()
		if math.Float64bits(with) != math.Float64bits(without) {
			t.Errorf("%s: %.17g with approximate_math, %.17g without", what, with, without)
		}
	}
	options := func(approx bool) map[string]any {
		o := map[string]any{"epol_eps": 0.9}
		if approx {
			o["approximate_math"] = true
		}
		return o
	}

	var energy [2]EnergyResponse
	var sweep [2]SweepResponse
	var created [2]StreamCreateResponse
	var frame [2]StreamFrameResponse
	for i, approx := range []bool{true, false} {
		if code := postJSON(t, ts.URL+"/v1/energy", map[string]any{
			"molecule": FromMolecule(mol), "options": options(approx),
		}, &energy[i]); code != http.StatusOK {
			t.Fatalf("energy approx=%v: status %d", approx, code)
		}
		if code := postJSON(t, ts.URL+"/v1/sweep", map[string]any{
			"ligand": FromMolecule(mol), "poses": []PoseJSON{{T: [3]float64{1, 2, 3}}}, "options": options(approx),
		}, &sweep[i]); code != http.StatusOK || len(sweep[i].Energies) != 1 {
			t.Fatalf("sweep approx=%v: status %d, %d energies", approx, code, len(sweep[i].Energies))
		}
		if code := postJSON(t, ts.URL+"/v1/stream", map[string]any{
			"molecule": FromMolecule(mol), "options": options(approx),
		}, &created[i]); code != http.StatusOK {
			t.Fatalf("stream create approx=%v: status %d", approx, code)
		}
		if code := postJSON(t, ts.URL+"/v1/stream/"+created[i].SessionID+"/frame", StreamFrameRequest{Moves: wire[0]}, &frame[i]); code != http.StatusOK {
			t.Fatalf("stream frame approx=%v: status %d", approx, code)
		}
	}
	same("/v1/energy", energy[0].Energy, energy[1].Energy)
	same("/v1/sweep", sweep[0].Energies[0], sweep[1].Energies[0])
	same("/v1/stream create", created[0].Energy, created[1].Energy)
	same("/v1/stream frame", frame[0].Energy, frame[1].Energy)
}
