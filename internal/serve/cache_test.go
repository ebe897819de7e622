package serve

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"octgb/internal/engine"
	"octgb/internal/molecule"
	"octgb/internal/surface"
	"octgb/internal/testutil"
)

func buildFor(t testing.TB, n int, seed int64) func() (*built, error) {
	t.Helper()
	return func() (*built, error) {
		mol := molecule.GenerateProtein(fmt.Sprintf("m%d-%d", n, seed), n, seed)
		pr := engine.NewProblem(mol, surface.Default())
		p, err := engine.Prepare(pr, engine.Options{Threads: 1})
		if err != nil {
			return nil, err
		}
		return &built{prep: p}, nil
	}
}

// TestCacheSingleflightStress is the satellite concurrency test: N
// goroutines hammer the same and different keys concurrently; exactly one
// build must run per key, everyone must observe the same value, and no
// goroutines may leak. Run under -race (the Makefile race target includes
// this package).
func TestCacheSingleflightStress(t *testing.T) {
	defer testutil.Watchdog(t, 2*time.Minute)()
	baseline := runtime.NumGoroutine()

	c := newPrepCache(1<<40, newMetrics(nil))
	const keys = 4
	const goroutinesPerKey = 16

	var builds [keys]atomic.Int64
	var wg sync.WaitGroup
	vals := make([][]*built, keys)
	for k := 0; k < keys; k++ {
		vals[k] = make([]*built, goroutinesPerKey)
	}
	for k := 0; k < keys; k++ {
		for g := 0; g < goroutinesPerKey; g++ {
			wg.Add(1)
			go func(k, g int) {
				defer wg.Done()
				inner := buildFor(t, 120+10*k, int64(k))
				v, _, err := c.get(fmt.Sprintf("key-%d", k), func() (*built, error) {
					builds[k].Add(1)
					return inner()
				})
				if err != nil {
					t.Errorf("get key-%d: %v", k, err)
					return
				}
				vals[k][g] = v
			}(k, g)
		}
	}
	wg.Wait()

	for k := 0; k < keys; k++ {
		if got := builds[k].Load(); got != 1 {
			t.Fatalf("key-%d built %d times, want exactly 1 (singleflight)", k, got)
		}
		for g := 1; g < goroutinesPerKey; g++ {
			if vals[k][g] != vals[k][0] {
				t.Fatalf("key-%d: goroutine %d observed a different value", k, g)
			}
		}
	}
	entries, bytes := c.stats()
	if entries != keys {
		t.Fatalf("cache has %d entries, want %d", entries, keys)
	}
	if bytes <= 0 {
		t.Fatalf("cache accounted %d bytes, want > 0", bytes)
	}
	if n := testutil.WaitGoroutines(baseline, 5*time.Second); n > baseline {
		t.Fatalf("goroutine leak: %d live, baseline %d", n, baseline)
	}
}

// TestCacheBuildErrorNotCached: a failing build propagates to every
// concurrent waiter and leaves nothing resident, so a later call retries.
func TestCacheBuildErrorNotCached(t *testing.T) {
	defer testutil.Watchdog(t, time.Minute)()
	c := newPrepCache(1<<40, newMetrics(nil))
	boom := fmt.Errorf("boom")
	var calls atomic.Int64

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, _, err := c.get("bad", func() (*built, error) {
				calls.Add(1)
				time.Sleep(10 * time.Millisecond) // let waiters pile up
				return nil, boom
			})
			errs[g] = err
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err == nil {
			t.Fatalf("waiter %d got nil error", g)
		}
	}
	if entries, _ := c.stats(); entries != 0 {
		t.Fatalf("error was cached: %d entries", entries)
	}
	// A fresh call retries the build (and can succeed).
	v, src, err := c.get("bad", buildFor(t, 100, 1))
	if err != nil || v == nil {
		t.Fatalf("retry after error: %v", err)
	}
	if src != sourceBuild {
		t.Fatalf("retry source = %s, want %s", src, sourceBuild)
	}
	if calls.Load() < 1 {
		t.Fatalf("build never ran")
	}
}

// TestCacheLRUEviction: exceeding the byte budget evicts least recently
// used entries, never the most recent one, and the accounting stays
// consistent.
func TestCacheLRUEviction(t *testing.T) {
	m := newMetrics(nil)
	// Build one entry to learn its size, then budget for exactly two.
	probe, err := buildFor(t, 150, 1)()
	if err != nil {
		t.Fatal(err)
	}
	one := probe.prep.MemoryBytes()
	c := newPrepCache(2*one+one/2, m)

	for i := 0; i < 4; i++ {
		if _, _, err := c.get(fmt.Sprintf("k%d", i), buildFor(t, 150, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	entries, bytes := c.stats()
	if entries > 2 {
		t.Fatalf("%d entries resident, budget allows 2", entries)
	}
	if bytes > 2*one+one/2 {
		t.Fatalf("resident bytes %d exceed budget", bytes)
	}
	if m.cacheEvictions.Value() == 0 {
		t.Fatalf("no evictions recorded")
	}
	// Most recent key must still be a hit.
	var hit bool
	_, src, err := c.get("k3", func() (*built, error) { hit = false; return nil, fmt.Errorf("rebuilt") })
	if err != nil || src != sourceHit {
		t.Fatalf("most recent entry evicted: src=%s err=%v hit=%v", src, err, hit)
	}
	// Oldest key must have been evicted → rebuilt.
	if _, src, err = c.get("k0", buildFor(t, 150, 0)); err != nil || src != sourceBuild {
		t.Fatalf("expected rebuild of evicted k0, got src=%s err=%v", src, err)
	}
}

// TestCacheKeyDiscriminates: the cache key must separate everything the
// preprocessing depends on and nothing else.
func TestCacheKeyDiscriminates(t *testing.T) {
	mol := molecule.GenerateProtein("m", 50, 1)
	same := molecule.GenerateProtein("other-name", 50, 1)
	base := evalOpts{bornEps: 0.9, epolEps: 0.9, surf: surface.Default()}

	if cacheKey(mol.HashString(), base) != cacheKey(same.HashString(), base) {
		t.Fatalf("key depends on molecule name")
	}
	epol := base
	epol.epolEps = 0.5
	if cacheKey(mol.HashString(), base) != cacheKey(mol.HashString(), epol) {
		t.Fatalf("key depends on ε_E (evaluation-time knob must share the entry)")
	}
	for name, mut := range map[string]func(*evalOpts){
		"bornEps": func(o *evalOpts) { o.bornEps = 0.5 },
		"subdiv":  func(o *evalOpts) { o.surf.SubdivLevel = 2 },
		"degree":  func(o *evalOpts) { o.surf.Degree = 3 },
	} {
		o := base
		mut(&o)
		if cacheKey(mol.HashString(), base) == cacheKey(mol.HashString(), o) {
			t.Fatalf("key ignores %s", name)
		}
	}
	other := molecule.GenerateProtein("m", 50, 2)
	if cacheKey(mol.HashString(), base) == cacheKey(other.HashString(), base) {
		t.Fatalf("key ignores molecule content")
	}
}
