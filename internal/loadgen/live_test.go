package loadgen

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"octgb/internal/fabric"
	"octgb/internal/serve"
	"octgb/internal/testutil"
)

// TestRunLiveSmoke drives a tiny trace against a real in-process server —
// wall-clock mode end to end. Deliberately small (the dev box has one
// core): a handful of 80-atom evaluations and one short stream session.
func TestRunLiveSmoke(t *testing.T) {
	defer testutil.Watchdog(t, 2*time.Minute)()
	srv := serve.New(serve.Config{Workers: 1, Threads: 1, MaxQueue: 16})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()

	spec := &TraceSpec{
		Name:     "live-smoke-test",
		Seed:     9,
		Requests: 6,
		Arrivals: ArrivalSpec{Process: ProcPoisson, RateHz: 50},
		Classes: []ClassSpec{
			{Kind: KindEnergy, Weight: 4, Atoms: 80},
			{Kind: KindStream, Weight: 1, Atoms: 80, Frames: 2, Movers: 3},
		},
	}
	reqs, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunLive(spec, reqs, LiveOptions{BaseURL: ts.URL, Speed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace != spec.Name || rep.Offered != 6 {
		t.Fatalf("report header off: %+v", rep)
	}
	if rep.Failed != 0 {
		t.Fatalf("%d transport/5xx failures: %+v", rep.Failed, rep)
	}
	if rep.Completed == 0 || rep.P99MS <= 0 {
		t.Fatalf("nothing measured: %+v", rep)
	}
	// Every offered arrival was accounted for somewhere.
	if rep.Completed+rep.RejectedQueueFull+rep.Shed < rep.Offered {
		t.Fatalf("accounting leak: %+v", rep)
	}
	// A bare server never sets the shard header.
	if rep.PerShardQPS != nil {
		t.Fatalf("bare server produced per-shard qps: %+v", rep.PerShardQPS)
	}
}

// TestRunLivePerShard: when the target stamps responses with the fabric
// router's worker header, the report breaks admitted qps down per shard.
// The router itself is faked with a header-stamping middleware — the
// fabric package's own tests cover real routing.
func TestRunLivePerShard(t *testing.T) {
	defer testutil.Watchdog(t, 2*time.Minute)()
	srv := serve.New(serve.Config{Workers: 1, Threads: 1, MaxQueue: 16})
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		shard := fmt.Sprintf("w%d", n.Add(1)%2)
		w.Header().Set(fabric.WorkerHeader, shard)
		srv.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()

	spec := &TraceSpec{
		Name:     "per-shard-test",
		Seed:     11,
		Requests: 8,
		Arrivals: ArrivalSpec{Process: ProcPoisson, RateHz: 50},
		Classes:  []ClassSpec{{Kind: KindEnergy, Weight: 1, Atoms: 60}},
	}
	reqs, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunLive(spec, reqs, LiveOptions{BaseURL: ts.URL, Speed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 || rep.Completed == 0 {
		t.Fatalf("run unhealthy: %+v", rep)
	}
	if len(rep.PerShardQPS) != 2 {
		t.Fatalf("per-shard qps = %v, want both fake shards", rep.PerShardQPS)
	}
	var sum float64
	for shard, qps := range rep.PerShardQPS {
		if qps <= 0 {
			t.Fatalf("shard %s has qps %v", shard, qps)
		}
		sum += qps
	}
	// The shard breakdown partitions the aggregate (same completions, same
	// measurement window).
	if d := sum - rep.AdmittedQPS; d > 1e-9 || d < -1e-9 {
		t.Fatalf("per-shard sum %.6f != admitted %.6f", sum, rep.AdmittedQPS)
	}
}

// TestRunLiveExactQuantiles: the report's quantiles are nearest-rank
// values of the measured latencies, not histogram bucket edges. The fake
// server holds its k-th request for k·gap, so the measured latencies are
// those delays plus loopback overhead, and the nearest-rank p50, p95 and
// p99 of twenty requests are the 10th, 19th and 20th delays.
func TestRunLiveExactQuantiles(t *testing.T) {
	defer testutil.Watchdog(t, 2*time.Minute)()
	const gap = 40 * time.Millisecond
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(time.Duration(n.Add(1)) * gap)
		w.Write([]byte("{}"))
	}))
	defer ts.Close()

	spec := &TraceSpec{
		Name:     "exact-quantiles",
		Seed:     3,
		Requests: 20,
		Arrivals: ArrivalSpec{Process: ProcPoisson, RateHz: 1000},
		Classes:  []ClassSpec{{Kind: KindEnergy, Weight: 1, Atoms: 20}},
	}
	reqs, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunLive(spec, reqs, LiveOptions{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 20 || rep.Failed != 0 {
		t.Fatalf("run unhealthy: %+v", rep)
	}
	for _, c := range []struct {
		name string
		got  float64
		rank int
	}{{"p50", rep.P50MS, 10}, {"p95", rep.P95MS, 19}, {"p99", rep.P99MS, 20}} {
		want := float64(time.Duration(c.rank)*gap) / 1e6
		// Overhead only adds; half a gap of it would already blur two ranks.
		if c.got < want || c.got >= want+float64(gap/2)/1e6 {
			t.Errorf("%s = %.3fms, want the rank-%d delay %.0fms (+ < %v overhead)", c.name, c.got, c.rank, want, gap/2)
		}
	}
}

// TestRunLiveBadBodyCountsAsFailure: a 200 whose body does not decode is
// one failure — not also an admission and a completion.
func TestRunLiveBadBodyCountsAsFailure(t *testing.T) {
	defer testutil.Watchdog(t, time.Minute)()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("not json"))
	}))
	defer ts.Close()

	spec := &TraceSpec{
		Name:     "bad-body",
		Seed:     5,
		Requests: 1,
		Arrivals: ArrivalSpec{Process: ProcPoisson, RateHz: 100},
		Classes:  []ClassSpec{{Kind: KindStream, Weight: 1, Atoms: 20, Frames: 2, Movers: 1}},
	}
	reqs, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunLive(spec, reqs, LiveOptions{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 1 || rep.Admitted != 0 || rep.Completed != 0 || rep.P99MS != 0 {
		t.Fatalf("stream create answered 200 with a bad body: got failed=%d admitted=%d completed=%d p99=%v, want 1/0/0/0",
			rep.Failed, rep.Admitted, rep.Completed, rep.P99MS)
	}
}

// TestRunLiveEvictedSessionIsNotAFailure: a frame answered 404 not_found
// ends its session, which the server evicted, and counts in
// EvictedSessions, not in Failed or AbortedSessions.
func TestRunLiveEvictedSessionIsNotAFailure(t *testing.T) {
	defer testutil.Watchdog(t, time.Minute)()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/stream":
			w.Write([]byte(`{"session_id":"s1","energy":-1}`))
		default:
			w.WriteHeader(http.StatusNotFound)
			w.Write([]byte(`{"error":"not_found","message":"no such session"}`))
		}
	}))
	defer ts.Close()

	spec := &TraceSpec{
		Name:     "evicted",
		Seed:     6,
		Requests: 1,
		Arrivals: ArrivalSpec{Process: ProcPoisson, RateHz: 100},
		Classes:  []ClassSpec{{Kind: KindStream, Weight: 1, Atoms: 20, Frames: 3, Movers: 1}},
	}
	reqs, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunLive(spec, reqs, LiveOptions{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	if rep.EvictedSessions != 1 || rep.Failed != 0 || rep.AbortedSessions != 0 || rep.Completed != 1 {
		t.Fatalf("evicted session: got evicted=%d failed=%d aborted=%d completed=%d, want 1/0/0/1",
			rep.EvictedSessions, rep.Failed, rep.AbortedSessions, rep.Completed)
	}
}
