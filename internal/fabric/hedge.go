package fabric

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"time"
)

// Hedging knobs. The delay adapts to the fleet: p95 of observed upstream
// latency, clamped, so hedges fire only into the latency tail. Until
// enough samples exist the delay falls back to a conservative default.
const (
	defaultHedgeDelay = 50 * time.Millisecond
	minHedgeDelay     = 2 * time.Millisecond
	maxHedgeDelay     = 2 * time.Second
	hedgeMinSamples   = 16
)

// hedgeDelay returns the delay a hedge launched now would wait before
// duplicating the request to the second-warmest shard.
func (rt *Router) hedgeDelay() time.Duration {
	if rt.cfg.HedgeDelay > 0 {
		return rt.cfg.HedgeDelay
	}
	snap := rt.upstreamLat.Snapshot()
	if snap.Count < hedgeMinSamples {
		return defaultHedgeDelay
	}
	d := snap.Quantile(0.95)
	if d < minHedgeDelay {
		d = minHedgeDelay
	}
	if d > maxHedgeDelay {
		d = maxHedgeDelay
	}
	return d
}

// hedgeResult is one leg's outcome.
type hedgeResult struct {
	resp   *http.Response
	worker string
	err    error
	leg    int
}

// hedged routes an idempotent request with tail-latency hedging: the
// primary leg starts immediately; if it has not answered within the
// p95-derived delay, a hedge leg duplicates the request to the
// second-warmest shard. First response wins, the loser's work is cancelled
// through its request context, and a duplicate answer is discarded
// (deduplicated) — the client sees exactly one response either way.
//
// Each leg is itself a failover chain (tryEach), so hedging composes with
// crash failover: the primary leg walks [owner, replica...] and the hedge
// leg walks the reverse.
func (rt *Router) hedged(ctx context.Context, order []string, up upstream) (*http.Response, string, error) {
	primCtx, cancelPrim := context.WithCancel(ctx)
	hedgeCtx, cancelHedge := context.WithCancel(ctx)

	results := make(chan hedgeResult, 2)
	run := func(leg int, c context.Context, ids []string) {
		resp, worker, err := rt.tryEach(c, ids, up)
		results <- hedgeResult{resp: resp, worker: worker, err: err, leg: leg}
	}
	go run(0, primCtx, order)

	timer := time.NewTimer(rt.hedgeDelay())
	defer timer.Stop()

	hedgeLaunched := false
	outstanding := 1
	var winner *hedgeResult
	var lastErr error
	for winner == nil && outstanding > 0 {
		select {
		case <-timer.C:
			if !hedgeLaunched {
				hedgeLaunched = true
				outstanding++
				rt.met.hedgesLaunched.Inc()
				rev := make([]string, len(order))
				for i, id := range order {
					rev[len(order)-1-i] = id
				}
				go run(1, hedgeCtx, rev)
			}
		case res := <-results:
			outstanding--
			if res.err != nil {
				lastErr = res.err
				continue
			}
			// Buffer the winner's body while its own context is still
			// live; afterwards both contexts can be cancelled safely.
			b, err := io.ReadAll(res.resp.Body)
			res.resp.Body.Close()
			if err != nil {
				lastErr = err
				continue
			}
			res.resp.Body = io.NopCloser(bytes.NewReader(b))
			r := res
			winner = &r
		}
	}

	if winner == nil {
		cancelPrim()
		cancelHedge()
		if lastErr == nil {
			lastErr = errors.New("no owners reachable")
		}
		return nil, "", lastErr
	}
	if winner.leg == 1 {
		rt.met.hedgeWins.Inc()
	}
	if outstanding > 0 {
		// Cancel the loser and account for it off the request path: a
		// cancelled leg is cut work, a completed one is a deduplicated
		// duplicate whose body is discarded unread by the client.
		if winner.leg == 0 {
			cancelHedge()
		} else {
			cancelPrim()
		}
		go func() {
			res := <-results
			if res.err == nil && res.resp != nil {
				res.resp.Body.Close()
				rt.met.hedgesDeduped.Inc()
			} else {
				rt.met.hedgesCanceled.Inc()
			}
			cancelPrim()
			cancelHedge()
		}()
	} else {
		cancelPrim()
		cancelHedge()
	}
	return winner.resp, winner.worker, nil
}
