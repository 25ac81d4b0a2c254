package check

import (
	"fmt"

	"fpgaflow/internal/rrgraph"
)

// Route-stage rules: a structural audit of the routing-resource graph
// (every edge lands on a real node, no self-loops, sane capacities, pins
// attached to the fabric) and a DRC of the PathFinder result (every net's
// route tree runs from its source to every sink over existing edges, no
// resource above capacity).

func hasGraph(a *Artifacts) bool { return a.Graph != nil }

func hasRouting(a *Artifacts) bool {
	return a.Routing != nil && a.Routing.Graph != nil &&
		a.Problem != nil && a.Placement != nil
}

func init() {
	register(Rule{
		ID:       "route/rr-dangling",
		Stage:    StageRoute,
		Severity: Error,
		Doc:      "an RR-graph edge points at a node ID outside the graph",
		Applies:  hasGraph,
		Run:      runRRDangling,
	})
	register(Rule{
		ID:       "route/rr-self-loop",
		Stage:    StageRoute,
		Severity: Error,
		Doc:      "an RR-graph node has an edge to itself",
		Applies:  hasGraph,
		Run:      runRRSelfLoop,
	})
	register(Rule{
		ID:       "route/rr-capacity",
		Stage:    StageRoute,
		Severity: Error,
		Doc:      "an RR-graph node has capacity < 1, a wire with no span, or a wire off its channel",
		Applies:  hasGraph,
		Run:      runRRCapacity,
	})
	register(Rule{
		ID:       "route/rr-isolated-pin",
		Stage:    StageRoute,
		Severity: Warn,
		Doc:      "a block pin is disconnected from the channel fabric (OPin drives no wire / IPin fed by none)",
		Applies:  hasGraph,
		Run:      runRRIsolatedPin,
	})
	register(Rule{
		ID:       "route/connectivity",
		Stage:    StageRoute,
		Severity: Error,
		Doc:      "a net's route tree does not connect its source to every sink over existing RR edges",
		Applies:  hasRouting,
		Run:      runConnectivity,
	})
	register(Rule{
		ID:       "route/overuse",
		Stage:    StageRoute,
		Severity: Error,
		Doc:      "a routing resource carries more nets than its capacity (channel overuse / short)",
		Applies:  hasRouting,
		Run:      runOveruse,
	})
}

func rrNodeName(n *rrgraph.Node) string {
	return fmt.Sprintf("%s@(%d,%d)#%d", n.Type, n.X, n.Y, n.ID)
}

func runRRDangling(a *Artifacts, rep *reporter) {
	g := a.Graph
	for _, n := range g.Nodes {
		if n == nil {
			rep.add(fmt.Sprintf("#%d", len(g.Nodes)), "nil node in RR graph")
			continue
		}
		for _, e := range n.Edges {
			if e < 0 || e >= len(g.Nodes) {
				rep.add(rrNodeName(n), "edge to nonexistent node %d (graph has %d nodes)", e, len(g.Nodes))
			}
		}
	}
}

func runRRSelfLoop(a *Artifacts, rep *reporter) {
	for _, n := range a.Graph.Nodes {
		for _, e := range n.Edges {
			if e == n.ID {
				rep.add(rrNodeName(n), "self-loop edge")
			}
		}
	}
}

func runRRCapacity(a *Artifacts, rep *reporter) {
	g := a.Graph
	for _, n := range g.Nodes {
		if n.Capacity < 1 {
			rep.add(rrNodeName(n), "capacity %d < 1", n.Capacity)
		}
		if n.Type == rrgraph.ChanX || n.Type == rrgraph.ChanY {
			if n.Span < 1 {
				rep.add(rrNodeName(n), "wire with span %d", n.Span)
			}
			if n.Track < 0 || n.Track >= g.W {
				rep.add(rrNodeName(n), "wire track %d outside channel width %d", n.Track, g.W)
			}
		}
	}
}

// runRRIsolatedPin checks fan-in/out sanity of the block pins: every OPin
// should reach at least one wire, every IPin be reachable from at least
// one. (Edges to the block-internal source/sink always exist; the question
// is whether the connection boxes attached the pin to the fabric at all.)
func runRRIsolatedPin(a *Artifacts, rep *reporter) {
	g := a.Graph
	wireFanin := make(map[int]bool) // IPin IDs fed by a wire
	for _, n := range g.Nodes {
		if n.Type != rrgraph.ChanX && n.Type != rrgraph.ChanY {
			continue
		}
		for _, e := range n.Edges {
			if e >= 0 && e < len(g.Nodes) && g.Nodes[e].Type == rrgraph.IPin {
				wireFanin[e] = true
			}
		}
	}
	for _, n := range g.Nodes {
		switch n.Type {
		case rrgraph.OPin:
			drivesWire := false
			for _, e := range n.Edges {
				if e < 0 || e >= len(g.Nodes) {
					continue
				}
				t := g.Nodes[e].Type
				if t == rrgraph.ChanX || t == rrgraph.ChanY {
					drivesWire = true
					break
				}
			}
			if !drivesWire {
				rep.add(rrNodeName(n), "output pin drives no channel wire")
			}
		case rrgraph.IPin:
			if !wireFanin[n.ID] {
				rep.add(rrNodeName(n), "input pin is fed by no channel wire")
			}
		}
	}
}

func runConnectivity(a *Artifacts, rep *reporter) {
	if !placementFits(a, rep) {
		return
	}
	r, p, pl := a.Routing, a.Problem, a.Placement
	g := r.Graph
	if len(r.Routes) != len(p.Nets) {
		rep.add("", "%d routes for %d nets", len(r.Routes), len(p.Nets))
		return
	}
	for ni, nr := range r.Routes {
		net := p.Nets[ni]
		if nr == nil {
			rep.add(net.Signal, "net unrouted")
			continue
		}
		if len(nr.Paths) != len(net.Blocks)-1 {
			rep.add(net.Signal, "%d paths for %d sinks", len(nr.Paths), len(net.Blocks)-1)
			continue
		}
		srcLoc := pl.Loc[net.Blocks[0]]
		wantSrc := g.SourceAt(srcLoc.X, srcLoc.Y)
		tree := map[int]bool{}
		for si, path := range nr.Paths {
			if len(path) == 0 {
				rep.add(net.Signal, "sink %d has an empty path", si)
				continue
			}
			bad := false
			for _, id := range path {
				if id < 0 || id >= len(g.Nodes) {
					rep.add(net.Signal, "sink %d path uses nonexistent node %d", si, id)
					bad = true
					break
				}
			}
			if bad {
				continue
			}
			if si == 0 {
				if path[0] != wantSrc {
					rep.add(net.Signal, "first path starts at %s, want source %s",
						rrNodeName(g.Nodes[path[0]]), rrNodeName(g.Nodes[wantSrc]))
				}
			} else if !tree[path[0]] {
				rep.add(net.Signal, "sink %d path starts at %s, detached from the net's route tree",
					si, rrNodeName(g.Nodes[path[0]]))
			}
			sinkLoc := pl.Loc[net.Blocks[si+1]]
			if want := g.SinkAt(sinkLoc.X, sinkLoc.Y); path[len(path)-1] != want {
				rep.add(net.Signal, "sink %d path ends at %s, want sink %s",
					si, rrNodeName(g.Nodes[path[len(path)-1]]), rrNodeName(g.Nodes[want]))
			}
			for i := 0; i+1 < len(path); i++ {
				if !g.HasEdge(path[i], path[i+1]) {
					rep.add(net.Signal, "path uses missing RR edge %s -> %s",
						rrNodeName(g.Nodes[path[i]]), rrNodeName(g.Nodes[path[i+1]]))
				}
			}
			for _, id := range path {
				tree[id] = true
			}
		}
	}
}

func runOveruse(a *Artifacts, rep *reporter) {
	r := a.Routing
	g := r.Graph
	usage := make([]int, len(g.Nodes))
	for _, nr := range r.Routes {
		if nr == nil {
			continue
		}
		for id := range nr.Nodes() {
			if id >= 0 && id < len(usage) {
				usage[id]++
			}
		}
	}
	for id, u := range usage {
		if u > g.Nodes[id].Capacity {
			rep.add(rrNodeName(g.Nodes[id]), "%d nets through a capacity-%d resource", u, g.Nodes[id].Capacity)
		}
	}
}
