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

	// required marks nodes that must become LUT roots, by ID.
	required := make([]bool, nl.NumNodes())
	var queue []*netlist.Node
	addRoot := func(n *netlist.Node) {
		if n.Kind == netlist.KindLogic && !required[n.ID()] {
			required[n.ID()] = true
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

	cut := make([][]*netlist.Node, nl.NumNodes())
	// inCone and inCut mark, by ID, the current root's cone and cut: a
	// node belongs when its mark equals the root's stamp.
	inCone, inCut := make([]int, nl.NumNodes()), make([]int, nl.NumNodes())
	for stamp := 1; len(queue) > 0; stamp++ {
		root := queue[0]
		queue = queue[1:]
		inCone[root.ID()] = stamp
		var cutSet []*netlist.Node
		grow := func(f *netlist.Node) {
			if inCone[f.ID()] != stamp && inCut[f.ID()] != stamp {
				inCut[f.ID()] = stamp
				cutSet = append(cutSet, f)
			}
		}
		for _, f := range root.Fanin {
			grow(f)
		}
		// Greedily absorb cut nodes while the cut stays K-feasible.
		for {
			best, bestDelta := -1, 1<<30
			for ci, c := range cutSet {
				if c.Kind != netlist.KindLogic || len(c.Fanin) == 0 {
					continue
				}
				// Absorbing a node whose fanout escapes the cone duplicates
				// logic; allow it only when it frees cut capacity anyway.
				delta := -1 // removing c from the cut
				for _, f := range c.Fanin {
					if inCut[f.ID()] != stamp && inCone[f.ID()] != stamp {
						delta++
					}
				}
				shared := false
				for _, fo := range c.Fanout() {
					if inCone[fo.ID()] != stamp {
						shared = true
						break
					}
				}
				if shared {
					delta += 1 // bias against duplication
				}
				// Ties go to the first name, so the choice does not depend
				// on the cut's order.
				if len(cutSet)+delta <= k && (delta < bestDelta || delta == bestDelta && c.Name < cutSet[best].Name) {
					best, bestDelta = ci, delta
				}
			}
			if best < 0 {
				break
			}
			b := cutSet[best]
			cutSet[best] = cutSet[len(cutSet)-1]
			cutSet = cutSet[:len(cutSet)-1]
			inCut[b.ID()], inCone[b.ID()] = 0, stamp
			for _, f := range b.Fanin {
				grow(f)
			}
			if len(cutSet) > k {
				// Revert is messy; stop absorbing (can only happen with
				// delta bias; guard defensively).
				break
			}
		}
		slices.SortFunc(cutSet, byName)
		cut[root.ID()] = cutSet
		for _, in := range cutSet {
			addRoot(in)
		}
	}
	return buildMapped(nl, func(n *netlist.Node) ([]*netlist.Node, bool) {
		return cut[n.ID()], required[n.ID()]
	})
}
