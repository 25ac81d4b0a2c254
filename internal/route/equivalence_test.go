package route_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"fpgaflow/internal/route"
	"fpgaflow/internal/rrgraph"
)

// TestLookaheadEquivalence routes the same placed design with the A*
// lookahead and with plain Dijkstra and requires bit-identical route
// trees: the tree-seed expansion order is fixed by route-tree insertion
// order (see scratch.search), so an admissible heuristic may reorder heap
// pops but never change which path wins.
func TestLookaheadEquivalence(t *testing.T) {
	p, pl := placed(t, 8)
	g1, err := rrgraph.Build(p.Arch)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := rrgraph.Build(p.Arch)
	r1, err := route.Route(p, pl, g1, route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := route.Route(p, pl, g2, route.Options{NoLookahead: true})
	if err != nil {
		t.Fatal(err)
	}
	for ni := range r1.Routes {
		b1, _ := json.Marshal(r1.Routes[ni].Paths)
		b2, _ := json.Marshal(r2.Routes[ni].Paths)
		if !bytes.Equal(b1, b2) {
			t.Errorf("net %d differs:\n  astar: %s\n  dijk:  %s", ni, b1, b2)
		}
	}
}
