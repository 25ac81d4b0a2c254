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

// hasWellFormedGraph gates the audits that index the graph's arrays;
// route/rr-dangling reports a graph whose arrays do not fit together.
func hasWellFormedGraph(a *Artifacts) bool { return a.Graph != nil && wellFormed(a.Graph) }

// wellFormed reports whether every per-node array of g has one entry per
// node and the edge offsets run monotonically from 0 to len(EdgeTo).
func wellFormed(g *rrgraph.Graph) bool {
	n := g.NumNodes()
	for _, l := range []int{len(g.X), len(g.Y), len(g.Span), len(g.Track), len(g.Pin), len(g.Capacity), len(g.R), len(g.C)} {
		if l != n {
			return false
		}
	}
	if len(g.EdgeStart) != n+1 || g.EdgeStart[0] != 0 || int(g.EdgeStart[n]) != len(g.EdgeTo) {
		return false
	}
	for i := 0; i < n; i++ {
		if g.EdgeStart[i] > g.EdgeStart[i+1] {
			return false
		}
	}
	return true
}

// hasRouting also requires the routed graph to be well formed: the
// routing and bitstream rules index its arrays by node ID.
func hasRouting(a *Artifacts) bool {
	return a.Routing != nil && a.Routing.Graph != nil && wellFormed(a.Routing.Graph) &&
		a.Problem != nil && a.Placement != nil
}

func init() {
	register(Rule{
		ID:       "route/rr-dangling",
		Stage:    StageRoute,
		Severity: Error,
		Doc:      "an RR-graph edge points at a node ID outside the graph, or the graph's arrays do not fit together",
		Applies:  hasGraph,
		Run:      runRRDangling,
	})
	register(Rule{
		ID:       "route/rr-self-loop",
		Stage:    StageRoute,
		Severity: Error,
		Doc:      "an RR-graph node has an edge to itself",
		Applies:  hasWellFormedGraph,
		Run:      runRRSelfLoop,
	})
	register(Rule{
		ID:       "route/rr-capacity",
		Stage:    StageRoute,
		Severity: Error,
		Doc:      "an RR-graph node has capacity < 1, a wire with no span, or a wire off its channel",
		Applies:  hasWellFormedGraph,
		Run:      runRRCapacity,
	})
	register(Rule{
		ID:       "route/rr-isolated-pin",
		Stage:    StageRoute,
		Severity: Warn,
		Doc:      "a block pin is disconnected from the channel fabric (OPin drives no wire / IPin fed by none)",
		Applies:  hasWellFormedGraph,
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

func rrNodeName(n rrgraph.Node) string {
	return fmt.Sprintf("%s@(%d,%d)#%d", n.Type, n.X, n.Y, n.ID)
}

func runRRDangling(a *Artifacts, rep *reporter) {
	g := a.Graph
	if !wellFormed(g) {
		rep.add("", "RR-graph arrays malformed: %d node kinds, %d edge offsets, %d edges",
			g.NumNodes(), len(g.EdgeStart), len(g.EdgeTo))
		return
	}
	for id := range g.Type {
		for _, e := range g.Edges(id) {
			if e < 0 || int(e) >= g.NumNodes() {
				rep.add(rrNodeName(g.Node(id)), "edge to nonexistent node %d (graph has %d nodes)", e, g.NumNodes())
			}
		}
	}
}

func runRRSelfLoop(a *Artifacts, rep *reporter) {
	g := a.Graph
	for id := range g.Type {
		for _, e := range g.Edges(id) {
			if int(e) == id {
				rep.add(rrNodeName(g.Node(id)), "self-loop edge")
			}
		}
	}
}

func runRRCapacity(a *Artifacts, rep *reporter) {
	g := a.Graph
	for id := range g.Type {
		n := g.Node(id)
		if n.Capacity < 1 {
			rep.add(rrNodeName(n), "capacity %d < 1", n.Capacity)
		}
		if n.Type.IsWire() {
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
	valid := func(e int32) bool { return e >= 0 && int(e) < g.NumNodes() }
	wireFanin := make(map[int]bool) // IPin IDs fed by a wire
	for id, t := range g.Type {
		if !t.IsWire() {
			continue
		}
		for _, e := range g.Edges(id) {
			if valid(e) && g.Type[e] == rrgraph.IPin {
				wireFanin[int(e)] = true
			}
		}
	}
	for id, t := range g.Type {
		switch t {
		case rrgraph.OPin:
			drivesWire := false
			for _, e := range g.Edges(id) {
				if valid(e) && g.Type[e].IsWire() {
					drivesWire = true
					break
				}
			}
			if !drivesWire {
				rep.add(rrNodeName(g.Node(id)), "output pin drives no channel wire")
			}
		case rrgraph.IPin:
			if !wireFanin[id] {
				rep.add(rrNodeName(g.Node(id)), "input pin is fed by no channel wire")
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
				if id < 0 || id >= g.NumNodes() {
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
						rrNodeName(g.Node(path[0])), rrNodeName(g.Node(wantSrc)))
				}
			} else if !tree[path[0]] {
				rep.add(net.Signal, "sink %d path starts at %s, detached from the net's route tree",
					si, rrNodeName(g.Node(path[0])))
			}
			sinkLoc := pl.Loc[net.Blocks[si+1]]
			if want := g.SinkAt(sinkLoc.X, sinkLoc.Y); path[len(path)-1] != want {
				rep.add(net.Signal, "sink %d path ends at %s, want sink %s",
					si, rrNodeName(g.Node(path[len(path)-1])), rrNodeName(g.Node(want)))
			}
			for i := 0; i+1 < len(path); i++ {
				if _, ok := g.EdgeIndex(path[i], path[i+1]); !ok {
					rep.add(net.Signal, "path uses missing RR edge %s -> %s",
						rrNodeName(g.Node(path[i])), rrNodeName(g.Node(path[i+1])))
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
	usage := make([]int, g.NumNodes())
	for _, nr := range r.Routes {
		if nr == nil {
			continue
		}
		for _, id := range nr.NodeList() {
			if id >= 0 && id < len(usage) {
				usage[id]++
			}
		}
	}
	for id, u := range usage {
		if c := int(g.Capacity[id]); u > c {
			rep.add(rrNodeName(g.Node(id)), "%d nets through a capacity-%d resource", u, c)
		}
	}
}
