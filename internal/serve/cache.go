package serve

import (
	"container/list"
	"errors"
	"sync"
	"time"

	"octgb/internal/engine"
)

// built is one cache value: the prepared problem plus the stage timings of
// the build that produced it (echoed in cold responses and aggregated in
// /stats).
type built struct {
	prep      *engine.Prepared
	surfaceNS int64 // surface sampling
	prepareNS int64 // octree construction + Born phase
	bytes     int64
}

// cacheSource says how a request obtained its prepared problem.
type cacheSource string

const (
	// sourceHit: the entry was resident.
	sourceHit cacheSource = "hit"
	// sourceBuild: this request built the entry.
	sourceBuild cacheSource = "miss"
	// sourceWait: another in-flight request was already building the same
	// key; this one waited for it (singleflight).
	sourceWait cacheSource = "coalesced"
)

// prepCache is a size-bounded LRU of prepared problems with singleflight
// deduplication: concurrent gets for the same key build once, everyone
// else blocks on the winner's result. Eviction is by estimated resident
// bytes (engine.Prepared.MemoryBytes), least recently used first. Build
// errors are returned to every waiter and not cached.
type prepCache struct {
	maxBytes int64
	metrics  *metrics

	mu     sync.Mutex
	ll     *list.List // front = most recently used; values are *cacheEntry
	items  map[string]*list.Element
	bytes  int64
	flight map[string]*flightCall
}

type cacheEntry struct {
	key string
	val *built
}

type flightCall struct {
	done chan struct{}
	val  *built
	err  error
}

func newPrepCache(maxBytes int64, m *metrics) *prepCache {
	c := &prepCache{
		maxBytes: maxBytes,
		metrics:  m,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		flight:   make(map[string]*flightCall),
	}
	return c
}

// errUnknownMolecule is get's answer to a lookup (nil build) of a key that
// is neither resident nor being built.
var errUnknownMolecule = errors.New("serve: unknown molecule")

// get returns the cached value for key, building it at most once across
// concurrent callers. build runs outside the cache lock. A nil build only
// looks up: it joins an in-flight build but never starts one.
func (c *prepCache) get(key string, build func() (*built, error)) (*built, cacheSource, error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.mu.Unlock()
		c.metrics.cacheHits.Inc()
		return el.Value.(*cacheEntry).val, sourceHit, nil
	}
	if fc, ok := c.flight[key]; ok {
		c.mu.Unlock()
		c.metrics.cacheCoalesced.Inc()
		<-fc.done
		return fc.val, sourceWait, fc.err
	}
	if build == nil {
		c.mu.Unlock()
		return nil, "", errUnknownMolecule
	}
	fc := &flightCall{done: make(chan struct{})}
	c.flight[key] = fc
	c.mu.Unlock()

	c.metrics.cacheMisses.Inc()
	t0 := time.Now()
	val, err := build()
	if err == nil {
		c.metrics.cacheBuilds.Inc()
		c.metrics.build.Observe(time.Since(t0))
	}

	c.mu.Lock()
	delete(c.flight, key)
	if err == nil {
		val.bytes = val.prep.MemoryBytes()
		el := c.ll.PushFront(&cacheEntry{key: key, val: val})
		c.items[key] = el
		c.bytes += val.bytes
		c.evictLocked()
	}
	c.mu.Unlock()

	fc.val, fc.err = val, err
	close(fc.done)
	return val, sourceBuild, err
}

// evictLocked drops least-recently-used entries until the byte budget is
// met; the most recent entry always stays so a single oversized molecule
// can still be served (it just won't keep neighbors resident).
func (c *prepCache) evictLocked() {
	for c.bytes > c.maxBytes && c.ll.Len() > 1 {
		el := c.ll.Back()
		ent := el.Value.(*cacheEntry)
		c.ll.Remove(el)
		delete(c.items, ent.key)
		c.bytes -= ent.val.bytes
		c.metrics.cacheEvictions.Inc()
	}
}

// stats returns the resident entry count and byte total.
func (c *prepCache) stats() (entries int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len(), c.bytes
}
