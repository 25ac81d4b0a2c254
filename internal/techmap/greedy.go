package techmap

import (
	"fmt"
	"slices"

	"fpgaflow/internal/logic"
	"fpgaflow/internal/netlist"
)

// MapGreedy is the area-oriented baseline mapper: it grows a cone for each
// required root by repeatedly absorbing the fanin whose absorption keeps the
// cut within K inputs, preferring fanins that are not shared with other
// cones (maximum-fanout-free-cone flavoured). Depth is not optimized.
func MapGreedy(nl *netlist.Netlist, k int) (*Result, error) {
	if k < 2 {
		return nil, fmt.Errorf("techmap: K must be >= 2, got %d", k)
	}
	if mf := logic.MaxFanin(nl); mf > k {
		return nil, fmt.Errorf("techmap: network has %d-input node, exceeds K=%d; decompose first", mf, k)
	}
	if _, err := nl.TopoSort(); err != nil {
		return nil, err
	}
	nl.BuildFanout()

	// required marks nodes that must become LUT roots.
	required := make(map[*netlist.Node]bool)
	var queue []*netlist.Node
	addRoot := func(n *netlist.Node) {
		if n.Kind == netlist.KindLogic && !required[n] {
			required[n] = true
			queue = append(queue, n)
		}
	}
	for _, o := range nl.Outputs {
		addRoot(nl.Node(o))
	}
	for _, n := range nl.Nodes() {
		if n.Kind == netlist.KindLatch {
			addRoot(n.Fanin[0])
		}
	}

	cut := make(map[*netlist.Node][]*netlist.Node)
	for len(queue) > 0 {
		root := queue[0]
		queue = queue[1:]
		inCone := map[*netlist.Node]bool{root: root.Kind == netlist.KindLogic}
		cutSet := make(map[*netlist.Node]bool)
		for _, f := range root.Fanin {
			cutSet[f] = true
		}
		// Greedily absorb cut nodes while the cut stays K-feasible.
		for {
			var best *netlist.Node
			bestDelta := 1 << 30
			for c := range cutSet {
				if c.Kind != netlist.KindLogic || len(c.Fanin) == 0 {
					continue
				}
				// Absorbing a node whose fanout escapes the cone duplicates
				// logic; allow it only when it frees cut capacity anyway.
				delta := -1 // removing c from the cut
				for _, f := range c.Fanin {
					if !cutSet[f] && !inCone[f] {
						delta++
					}
				}
				shared := false
				for _, fo := range c.Fanout() {
					if !inCone[fo] {
						shared = true
						break
					}
				}
				if shared {
					delta += 1 // bias against duplication
				}
				// Ties go to the first name, so the choice does not depend
				// on map order.
				if len(cutSet)+delta <= k && (delta < bestDelta || delta == bestDelta && c.Name < best.Name) {
					best, bestDelta = c, delta
				}
			}
			if best == nil {
				break
			}
			delete(cutSet, best)
			inCone[best] = true
			for _, f := range best.Fanin {
				if !inCone[f] {
					cutSet[f] = true
				}
			}
			if len(cutSet) > k {
				// Revert is messy; stop absorbing (can only happen with
				// delta bias; guard defensively).
				break
			}
		}
		inputs := make([]*netlist.Node, 0, len(cutSet))
		for c := range cutSet {
			inputs = append(inputs, c)
		}
		slices.SortFunc(inputs, byName)
		cut[root] = inputs
		for _, in := range inputs {
			addRoot(in)
		}
	}
	return buildMapped(nl, func(n *netlist.Node) ([]*netlist.Node, bool) {
		c, ok := cut[n]
		return c, ok
	})
}
