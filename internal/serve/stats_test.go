package serve

import (
	"io"
	"math"
	"net/http"
	"testing"
	"time"

	"octgb/internal/molecule"
	"octgb/internal/obs"
	"octgb/internal/testutil"
)

// scrape returns the samples of a server's /metrics.
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d, %v", resp.StatusCode, err)
	}
	return testutil.Samples(string(body))
}

// statsRow is one /stats value and the /metrics series it reads; ms marks
// a total in milliseconds against a histogram _sum in seconds.
type statsRow struct {
	field, series string
	v             float64
	ms            bool
}

// statsSeries pairs every /stats counter, gauge and timing with its series.
func statsSeries(st StatsSnapshot) []statsRow {
	c := func(field, series string, v int64) statsRow { return statsRow{field, series, float64(v), false} }
	return []statsRow{
		c("requests.energy", `octgb_serve_requests_total{endpoint="energy"}`, st.Requests.Energy),
		c("requests.sweep", `octgb_serve_requests_total{endpoint="sweep"}`, st.Requests.Sweep),
		c("requests.completed", `octgb_serve_results_total{result="completed"}`, st.Requests.Completed),
		c("requests.failed", `octgb_serve_results_total{result="failed"}`, st.Requests.Failed),
		c("admission.queue_depth", "octgb_serve_queue_depth", int64(st.Admission.QueueDepth)),
		c("admission.queue_limit", "octgb_serve_queue_limit", int64(st.Admission.QueueLimit)),
		c("admission.inflight", "octgb_serve_inflight", st.Admission.Inflight),
		c("admission.rejected_queue_full", `octgb_serve_rejects_total{reason="queue_full"}`, st.Admission.RejectedQueueFull),
		c("admission.rejected_draining", `octgb_serve_rejects_total{reason="draining"}`, st.Admission.RejectedDraining),
		c("admission.shed_load", `octgb_serve_rejects_total{reason="shed_load"}`, st.Admission.ShedLoad),
		c("admission.deadline_misses", "octgb_serve_deadline_misses_total", st.Admission.DeadlineMisses),
		c("admission.canceled", "octgb_serve_canceled_total", st.Admission.Canceled),
		c("cache.hits", `octgb_serve_cache_total{event="hit"}`, st.Cache.Hits),
		c("cache.misses", `octgb_serve_cache_total{event="miss"}`, st.Cache.Misses),
		c("cache.coalesced", `octgb_serve_cache_total{event="coalesced"}`, st.Cache.Coalesced),
		c("cache.builds", `octgb_serve_cache_total{event="build"}`, st.Cache.Builds),
		c("cache.evictions", `octgb_serve_cache_total{event="eviction"}`, st.Cache.Evictions),
		c("cache.entries", "octgb_serve_cache_entries", int64(st.Cache.Entries)),
		c("cache.bytes", "octgb_serve_cache_bytes", st.Cache.Bytes),
		c("batching.batches_run", "octgb_serve_batches_total", st.Batching.BatchesRun),
		c("batching.batched_requests", "octgb_serve_batched_requests_total", st.Batching.BatchedRequests),
		c("batching.batched_poses", "octgb_serve_batched_poses_total", st.Batching.BatchedPoses),
		c("streaming.live", "octgb_serve_stream_sessions", int64(st.Streaming.Live)),
		c("streaming.created", `octgb_serve_stream_total{event="created"}`, st.Streaming.Created),
		c("streaming.frames", `octgb_serve_stream_total{event="frame"}`, st.Streaming.Frames),
		c("streaming.closed", `octgb_serve_stream_total{event="closed"}`, st.Streaming.Closed),
		c("streaming.evicted_idle", `octgb_serve_stream_total{event="evicted_idle"}`, st.Streaming.EvictedIdle),
		c("streaming.evicted_lru", `octgb_serve_stream_total{event="evicted_lru"}`, st.Streaming.EvictedLRU),
		{"streaming.frame_ms_total", `octgb_serve_stage_seconds_sum{stage="frame",mode="stream"}`, st.Streaming.FrameMSTotal, true},
		{"timings.surface_ms_total", `octgb_serve_stage_seconds_sum{stage="surface"}`, st.Timings.SurfaceMSTotal, true},
		{"timings.prepare_ms_total", `octgb_serve_stage_seconds_sum{stage="prepare"}`, st.Timings.PrepareMSTotal, true},
		{"timings.eval_ms_total", `octgb_serve_stage_seconds_sum{stage="eval"}`, st.Timings.EvalMSTotal, true},
		{"timings.build_ms_total", `octgb_serve_stage_seconds_sum{stage="build"}`, st.Timings.BuildMSTotal, true},
		c("timings.evals", `octgb_serve_stage_seconds_count{stage="eval"}`, st.Timings.Evals),
	}
}

// agree fails t on every /stats value that differs from its /metrics
// sample.
func agree(t *testing.T, url string) StatsSnapshot {
	t.Helper()
	var st StatsSnapshot
	if code := doJSON(t, http.MethodGet, url+"/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("/stats status %d", code)
	}
	samples := scrape(t, url)
	for _, r := range statsSeries(st) {
		got, ok := samples[r.series]
		if r.ms {
			got *= 1e3
		}
		if !ok || math.Abs(got-r.v) > 1e-9*math.Max(1, math.Abs(r.v)) {
			t.Errorf("/stats %s = %g, /metrics %s = %g (present %v)", r.field, r.v, r.series, got, ok)
		}
	}
	if _, ok := samples["octgb_engine_recycled_bytes"]; !ok {
		t.Error("/metrics has no octgb_engine_recycled_bytes gauge")
	}
	return st
}

// TestStatsAgreesWithMetrics scripts a request mix through one server —
// cold and warm energy, a sweep, a stream create, frame and close, and a
// queue-full reject — and holds every /stats counter to its /metrics
// sample. A second server on the same Observer keeps its own /stats,
// LoadStats and /metrics.
func TestStatsAgreesWithMetrics(t *testing.T) {
	defer testutil.Watchdog(t, 2*time.Minute)()
	ob := obs.New()
	s, ts := newTestServer(t, Config{Workers: 1, Threads: 1, MaxQueue: 1, Observe: ob})
	other, otherTS := newTestServer(t, Config{Workers: 1, Threads: 1, Observe: ob})

	mol := FromMolecule(molecule.GenerateProtein("agree", 120, 91))
	var cold, warm EnergyResponse
	if code := postJSON(t, ts.URL+"/v1/energy", EnergyRequest{Molecule: mol}, &cold); code != http.StatusOK {
		t.Fatalf("cold energy: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/energy", EnergyRequest{Molecule: mol}, &warm); code != http.StatusOK || warm.Cache != "hit" {
		t.Fatalf("warm energy: status %d, cache %q", code, warm.Cache)
	}
	if math.Float64bits(cold.Energy) != math.Float64bits(warm.Energy) {
		t.Errorf("cold energy %.17g, warm %.17g: one entry, two answers", cold.Energy, warm.Energy)
	}
	var sr SweepResponse
	if code := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{Ligand: mol, Poses: []PoseJSON{{T: [3]float64{1, 0, 0}}, {}}}, &sr); code != http.StatusOK {
		t.Fatalf("sweep: status %d", code)
	}
	var cr StreamCreateResponse
	if code := postJSON(t, ts.URL+"/v1/stream", StreamCreateRequest{Molecule: mol}, &cr); code != http.StatusOK {
		t.Fatalf("stream create: status %d", code)
	}
	frame := StreamFrameRequest{Moves: []MoveJSON{{I: 0, Pos: [3]float64{mol.Atoms[0][0] + 0.1, mol.Atoms[0][1], mol.Atoms[0][2]}}}}
	if code := postJSON(t, ts.URL+"/v1/stream/"+cr.SessionID+"/frame", frame, nil); code != http.StatusOK {
		t.Fatalf("stream frame: status %d", code)
	}
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/stream/"+cr.SessionID, nil, nil); code != http.StatusOK {
		t.Fatalf("stream close: status %d", code)
	}

	// Occupy the one worker, fill the one queue slot, and get a 429.
	block, running, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	if err := s.submit(func() { close(running); <-block }); err != nil {
		t.Fatal(err)
	}
	<-running
	if err := s.submit(func() { close(done) }); err != nil {
		t.Fatal(err)
	}
	if code := postJSON(t, ts.URL+"/v1/energy", EnergyRequest{Molecule: mol}, nil); code != http.StatusTooManyRequests {
		t.Fatalf("energy on a full queue: status %d, want 429", code)
	}
	close(block)
	<-done
	for deadline := time.Now().Add(10 * time.Second); s.metrics.inflight.Load() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("worker never went idle")
		}
	}

	st := agree(t, ts.URL)
	for field, v := range map[string]int64{
		"requests.energy": st.Requests.Energy, "requests.sweep": st.Requests.Sweep, "requests.completed": st.Requests.Completed,
		"admission.rejected_queue_full": st.Admission.RejectedQueueFull,
		"cache.hits":                    st.Cache.Hits, "cache.builds": st.Cache.Builds,
		"batching.batched_poses": st.Batching.BatchedPoses,
		"streaming.created":      st.Streaming.Created, "streaming.frames": st.Streaming.Frames, "streaming.closed": st.Streaming.Closed,
		"timings.evals": st.Timings.Evals,
	} {
		if v == 0 {
			t.Errorf("/stats %s = 0 after the scripted mix", field)
		}
	}
	if st.Streaming.FrameMSTotal <= 0 || st.Timings.BuildMSTotal <= 0 {
		t.Errorf("/stats frame_ms_total %g, build_ms_total %g: want both > 0", st.Streaming.FrameMSTotal, st.Timings.BuildMSTotal)
	}

	// The server beside it shares the Observer and saw none of it.
	ost := agree(t, otherTS.URL)
	if ost.Requests.Energy != 0 || ost.Cache.Builds != 0 || ost.Streaming.Created != 0 || ost.Timings.Evals != 0 {
		t.Errorf("a server sharing the Observer counts the other's requests: %+v", ost)
	}
	if ls := other.LoadStats(); ls.CacheEntries != 0 || ls.CacheHits != 0 || ls.CacheMisses != 0 {
		t.Errorf("LoadStats of the idle server: %+v", ls)
	}
	if ls := s.LoadStats(); ls.CacheHits != st.Cache.Hits || ls.CacheMisses != st.Cache.Misses || ls.CacheEntries != st.Cache.Entries {
		t.Errorf("LoadStats %+v disagrees with /stats cache %+v", ls, st.Cache)
	}
}
