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
// and a width routed again by a later attempt (re-seeded retry, or the
// escalation re-trying the width that failed) reuses its graph instead of
// rebuilding it. All methods are safe for concurrent use.
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
// it on first use; callers must not modify it. The hit/miss is counted
// on tr as rrgraph.cache_hits / rrgraph.cache_misses (tr may be nil).
// Safe on a nil cache: falls back to a plain Build (counted as a miss).
func (c *Cache) Get(a *arch.Arch, tr *obs.Trace) (*Graph, error) {
	if c == nil {
		tr.Add("rrgraph.cache_misses", 1)
		return Build(a)
	}
	key := arch.Format(a)
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.tick++
		e.used = c.tick
		g := e.g
		c.mu.Unlock()
		tr.Add("rrgraph.cache_hits", 1)
		return g, nil
	}
	c.mu.Unlock()

	// Build outside the lock: graph construction is the expensive part and
	// concurrent callers may want different architectures.
	g, err := Build(a)
	if err != nil {
		tr.Add("rrgraph.cache_misses", 1)
		return nil, err
	}
	c.mu.Lock()
	if _, ok := c.entries[key]; !ok {
		c.evictLocked()
		c.tick++
		c.entries[key] = &cacheEntry{g: g, used: c.tick}
	}
	c.mu.Unlock()
	tr.Add("rrgraph.cache_misses", 1)
	return g, nil
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
