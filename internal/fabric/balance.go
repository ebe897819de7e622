package fabric

import "sync"

// Hot-key tracking knobs: a key seen hotThreshold+ times within the last
// hotWindow routed requests is hot, and hot keys alternate across their
// replica set so R shards warm up instead of one.
const (
	hotWindow    = 1024
	hotThreshold = 8
)

// hotTracker is the router's soft-state popularity sketch: a sliding
// window of the last N routing keys with exact counts. Losing it on a
// router restart costs nothing but a few spreads — it re-learns within
// one window.
type hotTracker struct {
	mu        sync.Mutex
	window    []uint64
	at        int
	filled    bool
	counts    map[uint64]int
	threshold int
}

func newHotTracker(window, threshold int) *hotTracker {
	return &hotTracker{
		window:    make([]uint64, window),
		counts:    make(map[uint64]int, window/4),
		threshold: threshold,
	}
}

// touch records one access and reports whether the key is now hot.
func (t *hotTracker) touch(key uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.filled {
		old := t.window[t.at]
		if c := t.counts[old]; c <= 1 {
			delete(t.counts, old)
		} else {
			t.counts[old] = c - 1
		}
	}
	t.window[t.at] = key
	t.at++
	if t.at == len(t.window) {
		t.at = 0
		t.filled = true
	}
	t.counts[key]++
	return t.counts[key] >= t.threshold
}

// plan orders the key's replica set for one request: primary first, then
// failover replicas, adjusted by the cache-aware balancer.
//
//   - Cold key: the primary owns it. If the primary's last load report
//     says it is saturated (every pool slot busy and a queue behind them)
//     and some replica is not, spill to that replica — it will build the
//     entry cold once, and the key's warmth then lives on two shards.
//   - Hot key: alternate the first position across the replica set so all
//     R owners keep the entry resident, which is what makes failover for
//     hot receptors hitless.
//
// The returned slice is freshly allocated; callers may reorder it.
func (rt *Router) plan(key uint64) []string {
	owners := rt.mem.Ring().Owners(key, rt.cfg.Replicas)
	if len(owners) <= 1 {
		return owners
	}
	if rt.hot.touch(key) {
		if i := int(rt.spread.Add(1) % uint64(len(owners))); i != 0 {
			owners[0], owners[i] = owners[i], owners[0]
			rt.met.hotSpreads.Inc()
		}
		return owners
	}
	if prim, ok := rt.mem.Member(owners[0]); ok && prim.Load.busy() {
		for j := 1; j < len(owners); j++ {
			rep, ok := rt.mem.Member(owners[j])
			if !ok || rep.Load.busy() {
				continue
			}
			owners[0], owners[j] = owners[j], owners[0]
			rt.met.spills.Inc()
			break
		}
	}
	return owners
}
