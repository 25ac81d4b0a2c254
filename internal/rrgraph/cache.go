package rrgraph

import (
	"sort"
	"sync"

	"fpgaflow/internal/arch"
	"fpgaflow/internal/obs"
)

// Cache memoizes built routing-resource graphs keyed by the complete
// architecture fingerprint (arch.Format covers the grid, CLB geometry,
// routing parameters including channel width, and the technology constants
// that set node R/C values). A graph is immutable, so Get hands every
// caller the same instance: the hardened runner keeps one cache per run,
// and a width routed again by a later attempt (a re-seeded retry) reuses
// its graph instead of rebuilding it. All methods are safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	tick    uint64
}

type cacheEntry struct {
	g    *Graph
	used uint64 // LRU stamp
}

// cacheSize bounds a cache. A graph for a mid-size fabric is a few MB;
// a handful covers the widths one run's min-channel-width search routes.
const cacheSize = 16

// NewCache creates a graph cache holding at most cacheSize graphs. When
// full, the least recently used entry is evicted.
func NewCache() *Cache {
	return &Cache{entries: make(map[string]*cacheEntry)}
}

// Get returns the shared graph for the architecture, building and caching
// it on first use; callers must not modify it. Every call counts on tr
// (which may be nil) both rrgraph.cache_hits and rrgraph.cache_misses, one
// of them by 1 and the other by 0, so a compile's metrics carry both
// counters whenever it asked the cache for a graph. Safe on a nil cache:
// falls back to a plain Build (counted as a miss).
func (c *Cache) Get(a *arch.Arch, tr *obs.Trace) (*Graph, error) {
	g, hit, err := c.get(a)
	h := int64(0)
	if hit {
		h = 1
	}
	tr.Add("rrgraph.cache_hits", h)
	tr.Add("rrgraph.cache_misses", 1-h)
	return g, err
}

func (c *Cache) get(a *arch.Arch) (g *Graph, hit bool, err error) {
	if c == nil {
		g, err = Build(a)
		return g, false, err
	}
	key := arch.Format(a)
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.tick++
		e.used = c.tick
		c.mu.Unlock()
		return e.g, true, nil
	}
	c.mu.Unlock()

	// Build outside the lock: graph construction is the expensive part and
	// concurrent callers may want different architectures.
	g, err = Build(a)
	if err != nil {
		return nil, false, err
	}
	c.mu.Lock()
	if _, ok := c.entries[key]; !ok {
		c.evictLocked()
		c.tick++
		c.entries[key] = &cacheEntry{g: g, used: c.tick}
	}
	c.mu.Unlock()
	return g, false, nil
}

// evictLocked removes the least recently used entry once the cache is at
// capacity. Caller holds c.mu. The scan walks keys in sorted order so the
// victim is deterministic even if use ticks ever tie.
func (c *Cache) evictLocked() {
	if len(c.entries) < cacheSize {
		return
	}
	keys := make([]string, 0, len(c.entries))
	for k := range c.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	oldestKey := keys[0]
	for _, k := range keys[1:] {
		if c.entries[k].used < c.entries[oldestKey].used {
			oldestKey = k
		}
	}
	delete(c.entries, oldestKey)
}
