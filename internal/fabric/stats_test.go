package fabric

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"octgb/internal/obs"
	"octgb/internal/testutil"
)

// TestRouterStatsAgreesWithMetrics scripts a router over two workers —
// routed requests, a forced hedge, a forced spill, a malformed and a lost
// session ID — and holds every /stats counter to its /metrics sample. A
// malformed routed ID names no shard, so it is a plain 404 and not a lost
// session in either view.
func TestRouterStatsAgreesWithMetrics(t *testing.T) {
	rt, front, workers := newRouterHarness(t, 2, RouterConfig{HedgeDelay: 30 * time.Millisecond, Observe: obs.New()})
	for seed := 0; seed < 4; seed++ {
		if resp, body := postRaw(t, front.URL+"/v1/energy", energyBody(seed)); resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, resp.StatusCode, body)
		}
	}

	// Hedge: the primary stalls past the hedge delay.
	const hedgeSeed = 5
	prim := stubByID(t, workers, rt.mem.Ring().Owners(keyOf(hedgeSeed), 2)[0])
	prim.delay.Store(int64(2 * time.Second))
	if resp, body := postRaw(t, front.URL+"/v1/energy", energyBody(hedgeSeed)); resp.StatusCode != http.StatusOK {
		t.Fatalf("hedged request: status %d: %s", resp.StatusCode, body)
	}
	prim.delay.Store(0)
	waitHedgeSettled(t, rt, rt.Stats().Hedge.Launched)

	// Spill: the primary's load report says it is saturated.
	const spillSeed = 3
	owners := rt.mem.Ring().Owners(keyOf(spillSeed), 2)
	rt.mem.mu.Lock()
	rt.mem.members[owners[0]].setLoad(LoadReport{Workers: 2, Inflight: 2, QueueDepth: 5})
	rt.mem.mu.Unlock()
	rt.plan(keyOf(spillSeed))

	frame := []byte(`{"moves":[]}`)
	if resp, body := postRaw(t, front.URL+"/v1/stream/no-separator/frame", frame); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("malformed session ID: status %d: %s", resp.StatusCode, body)
	}
	if got := rt.Stats().Requests.LostSessions; got != 0 {
		t.Fatalf("a malformed session ID counted as %d lost sessions, want 0", got)
	}
	if resp, body := postRaw(t, front.URL+"/v1/stream/gone~s-1/frame", frame); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("lost session: status %d: %s", resp.StatusCode, body)
	}

	st := rt.Stats()
	if st.Requests.LostSessions != 1 || st.Hedge.Launched == 0 || st.Requests.Spills == 0 || st.Membership.Joins != 2 {
		t.Fatalf("scripted events not all counted: lost=%d hedges=%d spills=%d joins=%d",
			st.Requests.LostSessions, st.Hedge.Launched, st.Requests.Spills, st.Membership.Joins)
	}
	resp, body := postGet(t, front.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	samples := testutil.Samples(string(body))
	for _, r := range []struct {
		field, series string
		v             int64
	}{
		{"requests.forwarded", "octgb_fabric_forwarded_total", st.Requests.Forwarded},
		{"requests.retries", "octgb_fabric_retries_total", st.Requests.Retries},
		{"requests.probe_misses", "octgb_fabric_probe_misses_total", st.Requests.ProbeMisses},
		{"requests.spills", "octgb_fabric_spills_total", st.Requests.Spills},
		{"requests.hot_spreads", "octgb_fabric_hot_spreads_total", st.Requests.HotSpreads},
		{"requests.no_workers", "octgb_fabric_no_workers_total", st.Requests.NoWorkers},
		{"requests.upstream_failed", "octgb_fabric_upstream_failed_total", st.Requests.UpstreamFailed},
		{"requests.lost_sessions", "octgb_fabric_lost_sessions_total", st.Requests.LostSessions},
		{"membership.joins", "octgb_fabric_member_joins_total", st.Membership.Joins},
		{"membership.goodbyes", "octgb_fabric_member_goodbyes_total", st.Membership.Goodbyes},
		{"membership.failures", "octgb_fabric_member_failures_total", st.Membership.Failures},
		{"membership.rejects", "octgb_fabric_member_rejects_total", st.Membership.Rejects},
		{"hedge.launched", `octgb_fabric_hedges_total{event="launched"}`, st.Hedge.Launched},
		{"hedge.wins", `octgb_fabric_hedges_total{event="won"}`, st.Hedge.Wins},
		{"hedge.deduped", `octgb_fabric_hedges_total{event="deduped"}`, st.Hedge.Deduped},
		{"hedge.canceled", `octgb_fabric_hedges_total{event="canceled"}`, st.Hedge.Canceled},
		{"ring.members", "octgb_fabric_workers", int64(st.Ring.Members)},
	} {
		if got, ok := samples[r.series]; !ok || got != float64(r.v) {
			t.Errorf("/stats %s = %d, /metrics %s = %g (present %v)", r.field, r.v, r.series, got, ok)
		}
	}

	// Every upstream send that came back is relayed (forwarded) or, as a
	// hedge's second answer, dropped (deduped); each latency family counts
	// it once, whichever series it lands in.
	sends := float64(st.Requests.Forwarded + st.Hedge.Deduped)
	for _, family := range []string{"octgb_fabric_upstream_seconds", "octgb_fabric_hedge_upstream_seconds"} {
		var count float64
		for series, v := range samples {
			if series == family+"_count" || strings.HasPrefix(series, family+"_count{") {
				count += v
			}
		}
		if count != sends {
			t.Errorf("%s: summed _count %g over its series, want one per upstream send (%g)", family, count, sends)
		}
	}
}
