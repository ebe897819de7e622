package fabric

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"octgb/internal/obs"
	"octgb/internal/serve"
)

// stubWorker is a scriptable upstream: an httptest server plus a worker
// agent registered under id, with togglable latency and context
// awareness.
type stubWorker struct {
	id       string
	ts       *httptest.Server
	agent    *Worker
	hits     atomic.Int64
	delay    atomic.Int64 // ns to sleep before answering
	sawHits  atomic.Int64
	canceled atomic.Int64  // handlers cut short by context cancel
	barrier  chan struct{} // when non-nil, handlers block until it closes
}

func (s *stubWorker) handler(w http.ResponseWriter, r *http.Request) {
	s.hits.Add(1)
	// Consume the body like a real worker: the server starts watching for
	// client disconnect (context cancellation) only once the body is read.
	_, _ = io.Copy(io.Discard, r.Body)
	if s.barrier != nil {
		<-s.barrier
	}
	if d := time.Duration(s.delay.Load()); d > 0 {
		select {
		case <-time.After(d):
		case <-r.Context().Done():
			s.canceled.Add(1)
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"request_id":"r1","worker":%q,"energy":-42.0}`, s.id)
}

// newRouterHarness builds a router (handler-mounted, membership on a
// loopback listener) plus n stub workers, and waits for the full ring.
func newRouterHarness(t *testing.T, n int, cfg RouterConfig) (*Router, *httptest.Server, []*stubWorker) {
	t.Helper()
	cfg.Addr = "unused"
	cfg.MembershipAddr = "unused"
	if cfg.Timeout == 0 {
		cfg.Timeout = 300 * time.Millisecond
	}
	if cfg.VNodes == 0 {
		cfg.VNodes = 32
	}
	rt := NewRouter(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rt.ServeMembership(ln)
	t.Cleanup(rt.mem.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	workers := make([]*stubWorker, n)
	for i := range workers {
		sw := &stubWorker{id: fmt.Sprintf("w%d", i)}
		sw.ts = httptest.NewServer(http.HandlerFunc(sw.handler))
		t.Cleanup(sw.ts.Close)
		agent, err := StartWorker(WorkerConfig{
			RouterAddr: rt.MembershipAddr(),
			WorkerID:   sw.id,
			Advertise:  strings.TrimPrefix(sw.ts.URL, "http://"),
			Epoch:      1,
			Timeout:    cfg.Timeout,
		})
		if err != nil {
			t.Fatal(err)
		}
		sw.agent = agent
		t.Cleanup(agent.Close)
		workers[i] = sw
	}
	deadline := time.Now().Add(5 * time.Second)
	for rt.mem.Ring().Size() != n {
		if time.Now().After(deadline) {
			t.Fatalf("ring never reached %d workers (at %d)", n, rt.mem.Ring().Size())
		}
		time.Sleep(5 * time.Millisecond)
	}
	return rt, front, workers
}

// energyAtoms is the molecule of energyBody(seed); seed varies the routing
// key.
func energyAtoms(seed int) serve.MoleculeJSON {
	atoms := make([][5]float64, 4)
	for i := range atoms {
		atoms[i] = [5]float64{float64(i) * 3, float64(seed), 0, 1.5, 0.1}
	}
	return serve.MoleculeJSON{Atoms: atoms}
}

// energyBody builds a small valid energy request.
func energyBody(seed int) []byte {
	b, _ := json.Marshal(serve.EnergyRequest{Molecule: energyAtoms(seed)})
	return b
}

// keyOf is the routing key the router derives for energyBody(seed): the
// ring's view of the molecule content hash.
func keyOf(seed int) uint64 {
	mj := energyAtoms(seed)
	mol, err := mj.ToMolecule()
	if err != nil {
		panic(err)
	}
	return KeyHash(mol.Hash())
}

// stubByID finds the stub a ring owner ID refers to.
func stubByID(t *testing.T, workers []*stubWorker, id string) *stubWorker {
	t.Helper()
	for _, w := range workers {
		if w.id == id {
			return w
		}
	}
	t.Fatalf("no stub %q", id)
	return nil
}

func postRaw(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestRouterRoutesByKey: the same molecule always lands on its ring
// owner; the serving shard is stamped on the response.
func TestRouterRoutesByKey(t *testing.T) {
	rt, front, workers := newRouterHarness(t, 3, RouterConfig{HedgeDelay: -1})
	for seed := 0; seed < 5; seed++ {
		want := rt.mem.Ring().Owner(keyOf(seed))
		for rep := 0; rep < 3; rep++ {
			resp, body := postRaw(t, front.URL+"/v1/energy", energyBody(seed))
			if resp.StatusCode != 200 {
				t.Fatalf("seed %d: status %d: %s", seed, resp.StatusCode, body)
			}
			if got := resp.Header.Get(WorkerHeader); got != want {
				t.Fatalf("seed %d rep %d served by %s, want owner %s", seed, rep, got, want)
			}
		}
	}
	total := int64(0)
	for _, w := range workers {
		total += w.hits.Load()
	}
	if total != 15 {
		t.Fatalf("stub hits %d, want 15 (no duplicates without hedging)", total)
	}
}

// TestRouterFailover: the primary dies hard (connection refused); the
// request retries on the replica and succeeds, and the dead worker leaves
// the ring via the suspect path.
func TestRouterFailover(t *testing.T) {
	rt, front, workers := newRouterHarness(t, 3, RouterConfig{HedgeDelay: -1})
	const seed = 7
	owners := rt.mem.Ring().Owners(keyOf(seed), 2)
	prim := stubByID(t, workers, owners[0])
	// Kill the HTTP side only: the membership link keeps heartbeating, so
	// the router still believes the worker is up — exactly the window
	// between a crash and its detection.
	prim.ts.CloseClientConnections()
	prim.ts.Close()

	resp, body := postRaw(t, front.URL+"/v1/energy", energyBody(seed))
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(WorkerHeader); got != owners[1] {
		t.Fatalf("served by %s, want replica %s", got, owners[1])
	}
	if rt.met.retries.Value() == 0 {
		t.Fatal("no retry recorded")
	}
	// The transport error marked the primary suspect → declared failed
	// via the single membership removal path.
	deadline := time.Now().Add(3 * time.Second)
	for {
		_, _, failures, _ := rt.mem.Counters()
		if failures >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("suspected primary never declared failed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRouterSpillsWhenPrimaryBusy: a cold key leaves a saturated primary
// for an idle replica, driven by the heartbeat load reports.
func TestRouterSpillsWhenPrimaryBusy(t *testing.T) {
	rt, _, workers := newRouterHarness(t, 2, RouterConfig{HedgeDelay: -1})
	const seed = 3
	owners := rt.mem.Ring().Owners(keyOf(seed), 2)
	// Mark the primary saturated via its member load (as a heartbeat
	// would), then plan.
	rt.mem.mu.Lock()
	rt.mem.members[owners[0]].setLoad(LoadReport{Workers: 2, Inflight: 2, QueueDepth: 5})
	rt.mem.mu.Unlock()
	order := rt.plan(keyOf(seed))
	if order[0] != owners[1] {
		t.Fatalf("plan %v, want spill to %s", order, owners[1])
	}
	if rt.met.spills.Value() != 1 {
		t.Fatalf("spills = %d, want 1", rt.met.spills.Value())
	}
	_ = workers
}

// TestRouterHotSpread: a hot key's requests alternate across its replica
// set instead of hammering the primary.
func TestRouterHotSpread(t *testing.T) {
	rt, front, workers := newRouterHarness(t, 3, RouterConfig{HedgeDelay: -1})
	const seed = 11
	owners := rt.mem.Ring().Owners(keyOf(seed), 2)
	for i := 0; i < hotThreshold+20; i++ {
		resp, body := postRaw(t, front.URL+"/v1/energy", energyBody(seed))
		if resp.StatusCode != 200 {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}
	if rt.met.hotSpreads.Value() == 0 {
		t.Fatal("hot key never spread to its replica")
	}
	a, b := stubByID(t, workers, owners[0]).hits.Load(), stubByID(t, workers, owners[1]).hits.Load()
	if a == 0 || b == 0 {
		t.Fatalf("hot key hits not spread: primary=%d replica=%d", a, b)
	}
}

// TestHedgingWinsOverSlowPrimary pins the tail-latency path: the primary
// stalls, the hedge fires after the configured delay, the replica's
// response wins, and the loser's in-flight work is cancelled through its
// request context. Counters surface in /stats and /metrics.
func TestHedgingWinsOverSlowPrimary(t *testing.T) {
	rt, front, workers := newRouterHarness(t, 2, RouterConfig{
		HedgeDelay: 30 * time.Millisecond,
		Observe:    obs.New(),
	})
	const seed = 5
	owners := rt.mem.Ring().Owners(keyOf(seed), 2)
	prim := stubByID(t, workers, owners[0])
	prim.delay.Store(int64(2 * time.Second)) // way past the hedge delay

	start := time.Now()
	resp, body := postRaw(t, front.URL+"/v1/energy", energyBody(seed))
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("hedged request took %v; the hedge never fired", d)
	}
	if got := resp.Header.Get(WorkerHeader); got != owners[1] {
		t.Fatalf("served by %s, want hedge replica %s", got, owners[1])
	}
	if !bytes.Contains(body, []byte(owners[1])) {
		t.Fatalf("response body %s not from replica", body)
	}

	st := rt.Stats()
	if st.Hedge.Launched == 0 || st.Hedge.Wins == 0 {
		t.Fatalf("hedge counters launched=%d wins=%d, want both > 0", st.Hedge.Launched, st.Hedge.Wins)
	}
	// Loser cancellation: the slow stub's handler must observe the
	// context cancel (its work was cut, not run to completion).
	deadline := time.Now().Add(3 * time.Second)
	for prim.canceled.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("loser's handler never saw cancellation")
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitHedgeSettled(t, rt, 1)
	if got := rt.met.hedgesCanceled.Value(); got == 0 {
		t.Fatalf("hedgesCanceled = %d, want > 0", got)
	}

	// /stats exposure.
	resp2, stats := postGet(t, front.URL+"/stats")
	if resp2.StatusCode != 200 || !bytes.Contains(stats, []byte(`"launched"`)) {
		t.Fatalf("/stats missing hedge block: %d %s", resp2.StatusCode, stats)
	}
	// /metrics exposure.
	resp3, metrics := postGet(t, front.URL+"/metrics")
	if resp3.StatusCode != 200 || !bytes.Contains(metrics, []byte("octgb_fabric_hedges_total")) {
		t.Fatalf("/metrics missing hedge counter: %d", resp3.StatusCode)
	}
	if !bytes.Contains(metrics, []byte(`octgb_fabric_upstream_seconds_bucket{worker=`)) {
		t.Fatal("/metrics missing per-shard upstream latency series")
	}
}

// TestHedgingDeduplicates pins the duplicate path: both legs answer (the
// stubs barrier until both arrived, so neither can be cancelled before
// responding), the client sees exactly one response, and the duplicate is
// discarded and counted.
func TestHedgingDeduplicates(t *testing.T) {
	rt, front, workers := newRouterHarness(t, 2, RouterConfig{HedgeDelay: 10 * time.Millisecond})
	barrier := make(chan struct{})
	arrivals := &atomic.Int64{}
	for _, w := range workers {
		w.barrier = barrier
	}
	// Release the barrier once both legs have arrived.
	go func() {
		deadline := time.Now().Add(5 * time.Second)
		for arrivals.Load() < 2 && time.Now().Before(deadline) {
			n := int64(0)
			for _, w := range workers {
				n += w.hits.Load()
			}
			arrivals.Store(n)
			time.Sleep(time.Millisecond)
		}
		close(barrier)
	}()

	resp, body := postRaw(t, front.URL+"/v1/energy", energyBody(9))
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	// Exactly one JSON document came back.
	var one map[string]any
	if err := json.Unmarshal(body, &one); err != nil {
		t.Fatalf("client saw a malformed (duplicated?) body: %v: %s", err, body)
	}
	total := int64(0)
	for _, w := range workers {
		total += w.hits.Load()
	}
	if total != 2 {
		t.Fatalf("upstream hits = %d, want 2 (request duplicated to both shards)", total)
	}
	waitHedgeSettled(t, rt, 1)
	st := rt.Stats()
	if st.Hedge.Launched != 1 {
		t.Fatalf("launched = %d, want 1", st.Hedge.Launched)
	}
	if st.Hedge.Deduped+st.Hedge.Canceled != 1 {
		t.Fatalf("deduped=%d canceled=%d, want exactly one loser accounted", st.Hedge.Deduped, st.Hedge.Canceled)
	}
}

// waitHedgeSettled waits until every launched hedge's loser has been
// accounted (the drain goroutine runs off the request path).
func waitHedgeSettled(t *testing.T, rt *Router, launched int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st := rt.Stats()
		if st.Hedge.Wins+st.Hedge.Deduped+st.Hedge.Canceled >= launched &&
			st.Hedge.Deduped+st.Hedge.Canceled >= launched {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("hedge accounting never settled: %+v", rt.Stats().Hedge)
}

func postGet(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp, b
}

// TestRouterNoWorkers: an empty ring is a clean 503 with the no_workers
// token, not a hang or a panic.
func TestRouterNoWorkers(t *testing.T) {
	rt := NewRouter(RouterConfig{Timeout: 200 * time.Millisecond, HedgeDelay: -1})
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	resp, body := postRaw(t, front.URL+"/v1/energy", energyBody(1))
	if resp.StatusCode != http.StatusServiceUnavailable || !bytes.Contains(body, []byte("no_workers")) {
		t.Fatalf("status %d body %s, want 503 no_workers", resp.StatusCode, body)
	}
	resp2, body2 := postGet(t, front.URL+"/healthz")
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz on empty ring: %d %s", resp2.StatusCode, body2)
	}
}

// TestRouterBadRequest: malformed bodies are rejected at the router with
// the workers' token vocabulary.
func TestRouterBadRequest(t *testing.T) {
	_, front, _ := newRouterHarness(t, 1, RouterConfig{HedgeDelay: -1})
	resp, body := postRaw(t, front.URL+"/v1/energy", []byte("{not json"))
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(body, []byte("bad_request")) {
		t.Fatalf("status %d body %s, want 400 bad_request", resp.StatusCode, body)
	}
	req, _ := http.NewRequest(http.MethodGet, front.URL+"/v1/energy", nil)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/energy: %d, want 405", resp2.StatusCode)
	}
}
