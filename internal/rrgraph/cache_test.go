package rrgraph

import (
	"testing"

	"fpgaflow/internal/arch"
	"fpgaflow/internal/obs"
)

func testArch(w int) *arch.Arch {
	a := arch.Paper()
	a.Cols, a.Rows = 4, 4
	a.Routing.ChannelWidth = w
	return a
}

func TestCacheHitsAndIsolation(t *testing.T) {
	cache := NewCache()
	tr := obs.New("test")
	g1, err := cache.Get(testArch(4), tr)
	if err != nil {
		t.Fatal(err)
	}
	// A miss registers the hit counter too, at 0: a metrics reader can
	// tell "no hits" from "no cache lookups".
	if hits, ok := tr.Counters()["rrgraph.cache_hits"]; !ok || hits != 0 {
		t.Fatalf("after one miss rrgraph.cache_hits = %d (present %v), want 0 and present", hits, ok)
	}
	g2, err := cache.Get(testArch(4), tr)
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Fatal("cache rebuilt a graph it already holds; the immutable graph must be shared")
	}
	cnt := tr.Counters()
	if cnt["rrgraph.cache_hits"] != 1 || cnt["rrgraph.cache_misses"] != 1 {
		t.Fatalf("obs counters = %v", cnt)
	}
	// Different channel width is a different key.
	g4, err := cache.Get(testArch(6), tr)
	if err != nil {
		t.Fatal(err)
	}
	if g4.W != 6 || g4 == g1 {
		t.Fatalf("W = %d (shared with W=4: %v), want a separate W=6 graph", g4.W, g4 == g1)
	}
	if cnt := tr.Counters(); cnt["rrgraph.cache_misses"] != 2 {
		t.Fatalf("cache_misses = %d after two distinct widths, want 2", cnt["rrgraph.cache_misses"])
	}
}

func TestCacheEviction(t *testing.T) {
	cache := NewCache()
	tr := obs.New("test")
	for w := 1; w <= cacheSize+1; w++ {
		if _, err := cache.Get(testArch(w), tr); err != nil {
			t.Fatal(err)
		}
	}
	if len(cache.entries) != cacheSize {
		t.Fatalf("cache holds %d graphs, want cap %d", len(cache.entries), cacheSize)
	}
	// Most recent widths are retained: the newest must hit, the oldest
	// (W=1) was evicted and must be rebuilt.
	if _, err := cache.Get(testArch(cacheSize+1), tr); err != nil {
		t.Fatal(err)
	}
	if hits := tr.Counters()["rrgraph.cache_hits"]; hits != 1 {
		t.Fatalf("hits = %d, want 1 (LRU should keep the newest entries)", hits)
	}
	if _, err := cache.Get(testArch(1), tr); err != nil {
		t.Fatal(err)
	}
	if misses := tr.Counters()["rrgraph.cache_misses"]; misses != cacheSize+2 {
		t.Fatalf("misses = %d, want %d (the oldest width must have been evicted)", misses, cacheSize+2)
	}
}

func TestNilCacheFallsBackToBuild(t *testing.T) {
	var c *Cache
	tr := obs.New("test")
	g, err := c.Get(testArch(3), tr)
	if err != nil {
		t.Fatal(err)
	}
	if g == nil || g.W != 3 {
		t.Fatal("nil cache Get did not build")
	}
	if misses := tr.Counters()["rrgraph.cache_misses"]; misses != 1 {
		t.Fatalf("nil-cache build counted %d misses, want 1", misses)
	}
}
