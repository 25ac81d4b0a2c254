package route

import (
	"math/rand"
	"os"
	"slices"
	"testing"

	"fpgaflow/internal/arch"
	"fpgaflow/internal/netlist"
	"fpgaflow/internal/pack"
	"fpgaflow/internal/place"
	"fpgaflow/internal/rrgraph"
)

// rand64Graph builds the routing-resource graph of the fabric that
// examples/netlists/rand64.blif auto-sizes to.
func rand64Graph(t *testing.T) *rrgraph.Graph {
	t.Helper()
	src, err := os.ReadFile("../../examples/netlists/rand64.blif")
	if err != nil {
		t.Fatal(err)
	}
	nl, err := netlist.ParseBLIF(string(src))
	if err != nil {
		t.Fatal(err)
	}
	a := arch.Paper()
	pk, err := pack.Pack(nl, pack.Params{N: a.CLB.N, K: a.CLB.K, I: a.CLB.I})
	if err != nil {
		t.Fatal(err)
	}
	p, err := place.NewProblem(a, pk)
	if err != nil {
		t.Fatal(err)
	}
	p.AutoSize()
	g, err := rrgraph.Build(p.Arch)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// refSearch is search without the dead-end prune and without the
// lookahead: Dijkstra over every successor, with the tree seeds expanded
// in treeList order exactly as search expands them.
func refSearch(g *rrgraph.Graph, tree []int, target, source int, sourceLocked bool, nc *netCost) []int {
	dist := make([]float64, g.NumNodes())
	prev := make([]int, g.NumNodes())
	seen := make([]bool, g.NumNodes())
	set := func(n int, d float64, p int) { dist[n], prev[n], seen[n] = d, p, true }
	for _, n := range tree {
		if !(sourceLocked && n == source) {
			set(n, 0, -1)
		}
	}
	if seen[target] {
		return []int{target}
	}
	var q pq
	for _, n := range tree {
		if sourceLocked && n == source {
			continue
		}
		for _, e := range g.Edges(n) {
			if !seen[e] {
				c := nc.at(int(e))
				set(int(e), c, n)
				q.push(pqItem{f: c, g: c, node: e})
			}
		}
	}
	for len(q) > 0 {
		it := q.pop()
		id := int(it.node)
		if it.g > dist[id] {
			continue
		}
		if id == target {
			var path []int
			for n := target; n != -1; n = prev[n] {
				path = append([]int{n}, path...)
			}
			return path
		}
		for _, e := range g.Edges(id) {
			if c := it.g + nc.at(int(e)); !seen[e] || c < dist[e] {
				set(int(e), c, id)
				q.push(pqItem{f: c, g: c, node: e})
			}
		}
	}
	return nil
}

// TestSearchSkipsDeadEnds grows route trees on rand64's graph the way
// routeNet does, one sink after another from a CLB source, under random
// history costs, with and without the lookahead (the same trees and sinks
// both times). After every search no dead end off the tree (an input pin
// off the target's tile, or a sink other than the target) may carry the
// search's epoch: search must never have costed, bounded or pushed it.
// The path must equal the one an unpruned Dijkstra finds, so the prune is
// exact.
func TestSearchSkipsDeadEnds(t *testing.T) {
	g := rand64Graph(t)
	n := g.NumNodes()
	rng := rand.New(rand.NewSource(31))
	base := make([]float64, n)
	history := make([]float64, n)
	cong := make([]float64, n)
	for id, typ := range g.Type {
		base[id] = 1
		if typ == rrgraph.Sink {
			base[id] = 0.1
		}
		history[id] = rng.Float64()
		cong[id] = congestion(base[id], history[id], 0.5, 0, int(g.Capacity[id]))
	}
	var sources, sinks []int
	for x := 0; x < g.GridWidth(); x++ {
		for y := 0; y < g.GridHeight(); y++ {
			if g.Kind(x, y) == rrgraph.SiteCLB {
				sources = append(sources, g.SourceAt(x, y))
			}
			if k := g.Kind(x, y); k == rrgraph.SiteCLB || k == rrgraph.SiteIO {
				sinks = append(sinks, g.SinkAt(x, y))
			}
		}
	}
	for _, lookahead := range []bool{true, false} {
		hr := newHeur(g, false, 0, lookahead)
		if lookahead && !hr.enabled {
			t.Fatal("rand64's graph has no lookahead")
		}
		sc := newScratch(n)
		sc.setOwn(nil)
		pick := rand.New(rand.NewSource(64))
		for net := 0; net < 4; net++ {
			source := sources[pick.Intn(len(sources))]
			nc := netCost{usage: make([]int, n), history: history, base: base, cong: cong, capacity: g.Capacity,
				sc: sc, presFac: 0.5, seed: uint32(net+1) * 2654435761}
			sc.resetTree()
			sc.addTree(source)
			sourceLocked := false
			for range 4 {
				target := sinks[pick.Intn(len(sinks))]
				tree := append([]int(nil), sc.treeList...)
				path, err := sc.search(g, nil, target, source, sourceLocked, &nc, hr)
				if err != nil {
					t.Fatal(err)
				}
				tx, ty := g.X[target], g.Y[target]
				reached := 0
				for id, typ := range g.Type {
					dead := typ == rrgraph.IPin && (g.X[id] != tx || g.Y[id] != ty) || typ == rrgraph.Sink && id != target
					if dead && sc.seen(id) && !sc.inTree(id) {
						reached++
					}
				}
				if reached > 0 {
					t.Errorf("lookahead=%v net %d: the search to the sink at (%d,%d) reached %d dead ends",
						lookahead, net, tx, ty, reached)
				}
				if want := refSearch(g, tree, target, source, sourceLocked, &nc); !slices.Equal(path, want) {
					t.Errorf("lookahead=%v net %d: path to sink %d is %v, unpruned Dijkstra finds %v",
						lookahead, net, target, path, want)
				}
				for _, id := range path {
					sc.addTree(id)
				}
				sourceLocked = true
			}
		}
	}
}
