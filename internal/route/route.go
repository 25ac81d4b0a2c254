// Package route implements the routing half of the paper's VPR stage: the
// PathFinder negotiated-congestion algorithm over the routing-resource
// graph, plus a binary search for the minimum feasible channel width.
//
// Nets are routed in fixed-size batches: every net in a batch searches
// against a read-only snapshot of the congestion state, concurrently
// across Options.Workers goroutines, and the finished route trees are
// committed in net order. Because the batch boundaries and the per-net
// searches are independent of the worker count, the routing — and with it
// the bitstream — is bit-identical at every -j setting (see
// docs/PERFORMANCE.md for the determinism argument).
package route

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"fpgaflow/internal/fault"
	"fpgaflow/internal/obs"
	"fpgaflow/internal/obs/events"
	"fpgaflow/internal/place"
	"fpgaflow/internal/rrgraph"
)

// BaseCost selects the per-node base cost PathFinder negotiates over. One
// value per run, so delay- and energy-shaped costs cannot be mixed.
type BaseCost int

const (
	// BaseHops charges every wire the same unit cost: paths minimize hops.
	BaseHops BaseCost = iota
	// BaseDelay weights base costs by each resource's intrinsic RC delay
	// so paths prefer electrically fast routes, not just few hops.
	BaseDelay
	// BaseEnergy weights base costs by each resource's capacitance so
	// paths prefer low switched-capacitance routes (the min-energy
	// profile's cost axis). The A* lookahead tables assume hop- or
	// RC-floored costs, so energy-driven searches run as plain Dijkstra
	// (identical results, more heap pops).
	BaseEnergy
)

// PathFinder's negotiation schedule: the initial present-congestion
// factor, its per-iteration growth, and the history-cost accumulation rate
// on overused nodes.
const (
	presFacInit = 0.5
	presFacMult = 1.3
	histFac     = 1.0
)

// Options tunes the router.
type Options struct {
	// MaxIters bounds the rip-up-and-reroute iterations (default 40).
	MaxIters int
	// Base selects the base-cost model (the zero value is BaseHops).
	Base BaseCost
	// Criticality makes the router timing-driven: it is called with nil
	// routes before the first iteration (a static pre-routing estimate)
	// and with the complete committed routing after every iteration, and
	// must return one value in [0,1] per net — see timing.NetCriticalities.
	// A net with criticality c searches with the blended node cost
	//
	//	(1-c) * congestion_cost + c * base_cost
	//
	// so critical nets chase the cheapest (with BaseDelay, the fastest)
	// path and shed congestion avoidance, while relaxed nets detour around
	// contention. c is clamped to CritMax so the present/history terms can
	// always resolve conflicts. The callback must be a pure function of
	// its arguments; committed routings are identical at every worker
	// count, so the recomputed criticalities — and the routing — stay
	// bit-identical under any -j. Setting Criticality forces BaseDelay
	// (the blend needs a delay-shaped base cost, and the delay-driven A*
	// floors remain admissible under it; see docs/PERFORMANCE.md).
	Criticality func(g *rrgraph.Graph, routes []*NetRoute) []float64
	// NoLookahead disables the A* cost lookahead and falls back to plain
	// Dijkstra. The routed result is identical either way (the lookahead
	// is an admissible lower bound, so A* pops the same optimal paths);
	// the flag exists so the equivalence test can prove exactly that, and
	// as an escape hatch for debugging search behavior.
	NoLookahead bool
	// Ctx cancels routing cooperatively: the router checks it at every
	// rip-up-and-reroute iteration and returns the context's error. nil
	// means no cancellation.
	Ctx context.Context
	// Defects is the defective fabric to route around: every Route call
	// resolves it to a fault.Overlay on its graph, so the map follows the
	// design across channel-width trials (tracks added by a wider trial
	// are defect-free). nil routes the pristine fabric.
	Defects *fault.DefectMap
	// Workers is the number of concurrent net-routing workers per batch
	// (the CLI -j knob): 0 uses GOMAXPROCS, 1 routes serially. The routing
	// result is identical for every value; Workers trades only wall time.
	Workers int
	// Cache, when set, supplies routing-resource graphs to MinChannelWidth
	// width trials instead of rebuilding them. Graphs are shared and never
	// modified; defects live in each Result's overlay.
	Cache *rrgraph.Cache
	// Obs receives PathFinder counters (route.iterations, route.nets_routed,
	// route.overuse_sum, route.heap_pops; with Defects, what each call's
	// overlay masked on fault.rr_dead_nodes and fault.rr_edges_removed);
	// nil disables reporting. Its
	// event bus (Trace.Events) receives one route_iter event per PathFinder
	// iteration and a final route_congestion map keyed by structural wire
	// coordinates; without an enabled bus that costs one nil check and an
	// atomic load per iteration.
	Obs *obs.Trace
}

// ctxErr returns the options context's error, nil when no context is set.
func (o *Options) ctxErr() error {
	if o.Ctx == nil {
		return nil
	}
	return o.Ctx.Err()
}

func (o *Options) fill() {
	if o.Criticality != nil {
		// The criticality blend mixes congestion cost with a bare base
		// cost; with flat unit bases the blend would only wash out the
		// negotiation, so timing-driven routing implies delay-shaped bases.
		o.Base = BaseDelay
	}
	if o.MaxIters == 0 {
		o.MaxIters = 40
	}
}

// NetRoute is the routing of one net: one node path per sink, each running
// from the net's source node to that sink's sink node.
type NetRoute struct {
	// Paths[i] is the path for sink i of the net (problem order).
	Paths [][]int

	// nodes caches the deduplicated sorted node list (see NodeList). It is
	// unexported so the JSON shape of route trees is unchanged.
	nodes []int
}

// Result is a complete routing.
type Result struct {
	Graph *rrgraph.Graph
	// Defects is Options.Defects resolved on Graph (nil on a pristine
	// fabric): the dead nodes and removed switches no route may use.
	Defects *fault.Overlay
	Routes  []*NetRoute // parallel to Problem.Nets
	// Success is true when no resource is overused.
	Success    bool
	Iterations int
	// Overused counts nodes above capacity (0 on success).
	Overused int
}

// Route runs PathFinder. The placement must be legal for the graph's arch
// (the place/* rules of internal/check); the route/* rules check the result.
func Route(p *place.Problem, pl *place.Placement, g *rrgraph.Graph, opts Options) (*Result, error) {
	opts.fill()
	type conn struct {
		source int
		sinks  []int
	}
	conns := make([]conn, len(p.Nets))
	for i, n := range p.Nets {
		srcLoc := pl.Loc[n.Blocks[0]]
		src := g.SourceAt(srcLoc.X, srcLoc.Y)
		if src < 0 {
			return nil, fmt.Errorf("route: net %s: no source node at (%d,%d)", n.Signal, srcLoc.X, srcLoc.Y)
		}
		c := conn{source: src}
		for _, b := range n.Blocks[1:] {
			l := pl.Loc[b]
			snk := g.SinkAt(l.X, l.Y)
			if snk < 0 {
				return nil, fmt.Errorf("route: net %s: no sink node at (%d,%d)", n.Signal, l.X, l.Y)
			}
			c.sinks = append(c.sinks, snk)
		}
		conns[i] = c
	}

	ov := opts.Defects.Overlay(g)
	if ov != nil {
		opts.Obs.Add("fault.rr_dead_nodes", int64(ov.DeadNodes))
		opts.Obs.Add("fault.rr_edges_removed", int64(ov.EdgesRemoved))
	}

	nNodes := g.NumNodes()
	usage := make([]int, nNodes) // nets per node
	history := make([]float64, nNodes)
	routes := make([]*NetRoute, len(p.Nets))
	presFac := presFacInit

	// Delay- and energy-driven base costs normalize each wire's R*C
	// (respectively C) against the graph's worst, so costs stay comparable
	// to the unit hop cost.
	var norm float64
	switch opts.Base {
	case BaseDelay:
		for id := range nNodes {
			norm = max(norm, g.R[id]*g.C[id])
		}
	case BaseEnergy:
		for _, c := range g.C {
			norm = max(norm, c)
		}
	}
	// Per-net criticality for the timing-driven blend: seeded from the
	// pre-routing estimate, replaced by the callback's recompute over the
	// committed routing after every iteration. nil means pure congestion
	// cost. critMax keeps a sliver of congestion cost on even the most
	// critical net so present/history pressure can always separate two
	// fully-critical nets contending for one resource.
	const critMax = 0.99
	var crit []float64
	setCrit := func(nc []float64) {
		if len(nc) != len(conns) {
			return // contract violation: keep the previous estimate
		}
		for i, c := range nc {
			if c < 0 {
				nc[i] = 0
			} else if c > critMax {
				nc[i] = critMax
			}
		}
		crit = nc
	}
	if opts.Criticality != nil {
		setCrit(opts.Criticality(g, nil))
	}
	// The A* lookahead: admissible cost-to-sink lower bounds derived from
	// the graph's per-segment-type summary, built once per RR-graph and
	// read by every stage that shares the graph. See search.go for the
	// admissibility argument; NoLookahead degrades to plain Dijkstra, and
	// energy-driven bases (no RC floor in the tables) always search
	// undirected.
	hr := newHeur(g, opts.Base == BaseDelay, norm, !opts.NoLookahead && opts.Base != BaseEnergy)
	// Per-node base cost, computed once per call so the search's cost
	// evaluation reads a flat slice instead of branching on the node type
	// and the base-cost model on every expansion.
	capacity := g.Capacity
	base := make([]float64, nNodes)
	for id, t := range g.Type {
		b := 1.0
		if t == rrgraph.Sink {
			b = 0.1
		} else if opts.Base == BaseDelay && norm > 0 {
			b = 0.3 + 2*(g.R[id]*g.C[id])/norm
		} else if opts.Base == BaseEnergy && norm > 0 {
			b = 0.3 + 2*g.C[id]/norm
		}
		base[id] = b
	}
	// cong[id] is the congestion cost of node id to a net that does not
	// already use it: congestion(base, history, presFac, usage, capacity).
	// It is recomputed for every node at the start of each iteration
	// (history and presFac change between iterations) and refreshed
	// whenever occupy changes a node's usage, so the search reads one
	// value per expansion instead of evaluating the formula.
	cong := make([]float64, nNodes)
	refresh := func(id int) {
		cong[id] = congestion(base[id], history[id], presFac, usage[id], int(capacity[id]))
	}
	occupy := func(nr *NetRoute, delta int) {
		if nr == nil {
			return
		}
		for _, n := range nr.NodeList() {
			usage[n] += delta
			refresh(n)
		}
	}
	// costFor is the node cost net ni searches with, searching on sc.
	// usage, history and cong are frozen while a batch is in flight, so
	// concurrent reads are safe; presFac changes only between iterations.
	costFor := func(sc *scratch, ni int) netCost {
		nc := netCost{usage: usage, history: history, base: base, cong: cong, capacity: capacity, sc: sc,
			presFac: presFac, seed: uint32(ni+1) * 2654435761}
		if crit != nil {
			nc.crit = crit[ni]
		}
		return nc
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > netBatchSize {
		workers = netBatchSize
	}
	if n := len(conns); workers > n && n > 0 {
		workers = n
	}

	res := &Result{Graph: g, Defects: ov, Routes: routes}
	scratches := make([]*scratch, workers)
	for i := range scratches {
		scratches[i] = newScratch(nNodes)
	}
	var netsRouted, netsParallel, overuseSum, critUpdates int64
	defer func() {
		var pops, reused int64
		for _, sc := range scratches {
			pops += sc.pops
			reused += sc.reused
		}
		opts.Obs.SetGauge("route.workers", float64(workers))
		opts.Obs.Add("route.iterations", int64(res.Iterations))
		opts.Obs.Add("route.nets_routed", netsRouted)
		opts.Obs.Add("route.nets_parallel", netsParallel)
		opts.Obs.Add("route.overuse_sum", overuseSum)
		opts.Obs.Add("route.heap_pops", pops)
		opts.Obs.Add("route.sinks_reused", reused)
		opts.Obs.Add("route.crit_updates", critUpdates)
		opts.Obs.Gauge("route.overused_final").Set(float64(res.Overused))
	}()
	// overused reports whether one node is above capacity under the current
	// usage array; touchesOveruse lifts it to a whole committed route
	// (nil = not yet routed). Both read usage, which is frozen while a
	// batch of workers is in flight.
	overused := func(n int) bool { return usage[n] > int(capacity[n]) }
	touchesOveruse := func(nr *NetRoute) bool {
		if nr == nil {
			return true
		}
		for _, n := range nr.NodeList() {
			if overused(n) {
				return true
			}
		}
		return false
	}

	batchRoutes := make([]*NetRoute, netBatchSize)
	batchErrs := make([]error, netBatchSize)
	dirty := make([]int, 0, len(conns))
	// Route-tree reuse is only a win during the early high-churn
	// iterations, where most nets are dirty and most heap pops happen.
	// Past that window — or as soon as an iteration fails to reduce the
	// overused-node count — frozen subtrees stop paying the rising history
	// costs and distort the negotiation, so reuse switches off for the
	// rest of the run and every dirty net rips up fully, restoring the
	// classic PathFinder endgame (and its QoR) at tight channel widths.
	reuseOK := true
	prevOver := 1 << 30
	reusePrev := func(nr *NetRoute) *NetRoute {
		if !reuseOK {
			return nil
		}
		return nr
	}
	// Failure predictor state: the best (lowest) overused-node count seen
	// so far and the iteration that achieved it.
	bestOver, bestIter := 1<<30, 0
	// prevPops and prevRouted delta the cumulative effort counters into
	// per-iteration telemetry; only maintained while events are flowing.
	var prevPops, prevRouted int64
	// iterHist feeds the per-iteration latency distribution; hoisted so the
	// loop pays one nil check per iteration (nil Obs = inert timers, no
	// clock reads).
	iterHist := opts.Obs.Histogram("route.iter_seconds")
	for iter := 1; iter <= opts.MaxIters; iter++ {
		if err := opts.ctxErr(); err != nil {
			return nil, fmt.Errorf("route: %w", err)
		}
		res.Iterations = iter
		iterTimer := iterHist.StartTimer()
		for id := range cong {
			refresh(id)
		}

		// Phase 1 — parallel search. Only dirty nets (unrouted, or routed
		// through congestion) are rerouted; clean nets keep their trees.
		// Each batch searches against the congestion state frozen at batch
		// entry, then commits in net order.
		dirty = dirty[:0]
		for ni := range conns {
			if touchesOveruse(routes[ni]) {
				dirty = append(dirty, ni)
			}
		}
		for lo := 0; lo < len(dirty); lo += netBatchSize {
			hi := lo + netBatchSize
			if hi > len(dirty) {
				hi = len(dirty)
			}
			if err := opts.ctxErr(); err != nil {
				return nil, fmt.Errorf("route: %w", err)
			}
			// Worker k takes the batch indices congruent to k mod w; the
			// assignment affects only which goroutine does the work, never
			// the result.
			w := workers
			if w > hi-lo {
				w = hi - lo
			}
			if w <= 1 {
				sc := scratches[0]
				for bi := lo; bi < hi; bi++ {
					ni := dirty[bi]
					sc.setOwn(routes[ni])
					nc := costFor(sc, ni)
					batchRoutes[bi-lo], batchErrs[bi-lo] = routeNet(
						g, ov, conns[ni].source, conns[ni].sinks, reusePrev(routes[ni]), overused, &nc, hr, sc)
				}
			} else {
				var wg sync.WaitGroup
				for k := 0; k < w; k++ {
					wg.Add(1)
					go func(k int) {
						defer wg.Done()
						sc := scratches[k]
						for bi := lo + k; bi < hi; bi += w {
							ni := dirty[bi]
							sc.setOwn(routes[ni])
							nc := costFor(sc, ni)
							batchRoutes[bi-lo], batchErrs[bi-lo] = routeNet(
								g, ov, conns[ni].source, conns[ni].sinks, reusePrev(routes[ni]), overused, &nc, hr, sc)
						}
					}(k)
				}
				wg.Wait()
				netsParallel += int64(hi - lo)
			}
			// Commit in net order: the lowest-indexed failure is the one
			// reported, independent of scheduling.
			for bi := lo; bi < hi; bi++ {
				if err := batchErrs[bi-lo]; err != nil {
					return nil, fmt.Errorf("route: net %s: %w", p.Nets[dirty[bi]].Signal, err)
				}
			}
			for bi := lo; bi < hi; bi++ {
				ni := dirty[bi]
				occupy(routes[ni], -1)
				routes[ni] = batchRoutes[bi-lo]
				occupy(routes[ni], +1)
				netsRouted++
			}
		}

		// Phase 2 — serial conflict repair. Nets that still share an
		// overused resource after the parallel commits are rerouted one at
		// a time against live usage, in net order. This is the classic
		// PathFinder step restricted to the conflict set: it is what
		// actually breaks symmetric contention (two nets herding between
		// the same two alternatives see each other's choice here), so the
		// parallel phase cannot live-lock the iteration. The repair order
		// is fixed, so the result stays worker-count independent.
		for ni := range conns {
			if err := opts.ctxErr(); err != nil {
				return nil, fmt.Errorf("route: %w", err)
			}
			if !touchesOveruse(routes[ni]) {
				continue
			}
			occupy(routes[ni], -1)
			// The net's own usage was just removed, so a kept path would put
			// it back: a node survives only if re-adding one user stays
			// within capacity. The live usage also makes own-exclusion moot
			// (setOwn(nil) clears it).
			sc := scratches[0]
			sc.setOwn(nil)
			wouldOveruse := func(n int) bool { return usage[n]+1 > int(capacity[n]) }
			nc := costFor(sc, ni)
			nr, err := routeNet(g, ov, conns[ni].source, conns[ni].sinks, reusePrev(routes[ni]), wouldOveruse, &nc, hr, sc)
			if err != nil {
				return nil, fmt.Errorf("route: net %s: %w", p.Nets[ni].Signal, err)
			}
			routes[ni] = nr
			netsRouted++
			occupy(nr, +1)
		}

		over, overUnits := 0, 0
		//fpga:hotloop
		for id, c := range capacity {
			if excess := usage[id] - int(c); excess > 0 {
				over++
				overUnits += excess
				history[id] += histFac * float64(excess)
			}
		}
		res.Overused = over
		overuseSum += int64(over)
		// Both exits below (success return and next iteration) pass through
		// here, so every completed iteration lands one observation.
		iterTimer.ObserveDuration()
		if over >= prevOver || iter >= reuseMaxIter {
			reuseOK = false
		}
		prevOver = over
		if opts.Obs.Events().Enabled() {
			var pops int64
			for _, sc := range scratches {
				pops += sc.pops
			}
			opts.Obs.Publish(events.Event{Kind: events.KindRouteIter, RouteIter: &events.RouteIter{
				Iter: iter, Overused: over, OveruseSum: overUnits, PresFac: presFac,
				Wirelength: res.WirelengthUsed(), HeapPops: pops - prevPops,
				DirtyNets: int(netsRouted - prevRouted),
			}})
			prevPops, prevRouted = pops, netsRouted
		}
		if over == 0 {
			res.Success = true
			publishCongestion(g, usage, res, &opts)
			return res, nil
		}
		if over < bestOver {
			bestOver, bestIter = over, iter
		}
		// Failure predictor: a converging negotiation keeps setting new
		// overuse lows every iteration or two (rising present/history costs
		// steadily squeeze the conflict set), while an unroutable width
		// oscillates around a floor. Once no new low has appeared for
		// predictStall iterations AND the best low is still far from zero,
		// declare the width unroutable instead of burning the rest of the
		// MaxIters budget — failing trials dominate the min-channel-width
		// search's cost by an order of magnitude.
		if iter-bestIter >= predictStall && bestOver >= predictMinOver {
			break
		}
		// Timing-driven recompute: every net now has a committed route, so
		// the callback can extract real routed delays. The committed routing
		// is identical at every worker count, hence so is the criticality
		// vector the next iteration searches with.
		if opts.Criticality != nil {
			setCrit(opts.Criticality(g, routes))
			critUpdates++
		}
		presFac *= presFacMult
	}
	publishCongestion(g, usage, res, &opts)
	return res, nil
}

// predictStall and predictMinOver gate the routing failure predictor: a
// trial is abandoned once predictStall consecutive iterations fail to set
// a new overused-node low while that low is still at least predictMinOver.
// Both margins are deliberately generous — observed successful trials
// never go more than ~3 iterations without a new low, and near-converged
// endgames (a handful of overused nodes) are always allowed to run to
// MaxIters — so the predictor only fires on trials that oscillate far
// from closure.
const (
	predictStall   = 12
	predictMinOver = 10
)

// publishCongestion emits the final per-channel-segment usage map as a
// route_congestion event — the heatmap's congestion half, also emitted for
// failed routings (an unroutable map shows where the pressure is).
// Segments are keyed by the same structural coordinates
// internal/fault.WireRef uses and listed in node-ID order, so the derived
// artifact is byte-stable.
func publishCongestion(g *rrgraph.Graph, usage []int, res *Result, opts *Options) {
	if !opts.Obs.Events().Enabled() {
		return
	}
	rc := &events.RouteCongestion{Width: g.W, Iterations: res.Iterations, Success: res.Success}
	for id, t := range g.Type {
		if !t.IsWire() || usage[id] == 0 {
			continue
		}
		rc.Segments = append(rc.Segments, events.Segment{
			Vertical: t == rrgraph.ChanY, X: int(g.X[id]), Y: int(g.Y[id]), Track: int(g.Track[id]),
			Usage: usage[id], Capacity: int(g.Capacity[id]),
		})
	}
	opts.Obs.Publish(events.Event{Kind: events.KindRouteCongestion, RouteCongestion: rc})
}

// netBatchSize is the number of nets that share one congestion snapshot.
// It is a fixed constant — never derived from Workers or GOMAXPROCS — so
// batch boundaries, and therefore the routing, are identical at every
// parallelism level. Smaller batches track congestion more closely
// (approaching the classic one-net-at-a-time PathFinder as the size goes
// to 1); larger batches expose more parallelism per synchronization.
const netBatchSize = 32

// reuseMaxIter is the last PathFinder iteration whose routes may be
// reused incrementally in the next one. The early iterations carry the
// bulk of the rip-up churn (and heap pops); bounding reuse to them keeps
// the endgame — where minimum-width feasibility is decided — identical in
// character to the classic algorithm.
const reuseMaxIter = 2

// netCost is the PathFinder node cost of one net's searches:
//
//	(base + history) * (1 + presFac * overuse)
//
// where overuse counts the users beyond capacity if the net took the node.
// own excludes the net's own previous route (sc.isOwn) so a net is not
// repelled by the congestion it itself caused last iteration.
//
// The tieBreak term is essential to convergence: nets in one batch see
// identical congestion, so two nets contending for the same resource
// would otherwise compute identical cost landscapes and herd together
// from alternative to alternative forever. A tiny per-(net, node)
// deterministic perturbation (< 1e-4, orders of magnitude below any
// real cost difference) makes tied nets prefer different alternatives,
// which is exactly the symmetry breaking the serial one-net-at-a-time
// order used to provide.
type netCost struct {
	usage    []int
	history  []float64
	base     []float64
	cong     []float64 // see Route: congestion cost to a net not using the node
	capacity []int32
	sc       *scratch
	presFac  float64
	// crit is the net's timing criticality (0 without Criticality).
	crit float64
	seed uint32
}

func (nc *netCost) at(id int) float64 {
	congest := nc.cong[id]
	if nc.sc.isOwn(id) {
		// The net's own previous route: its usage does not count against it.
		congest = congestion(nc.base[id], nc.history[id], nc.presFac, nc.usage[id]-1, int(nc.capacity[id]))
	}
	if c := nc.crit; c > 0 {
		// Timing-driven blend: congestion cost fades with net criticality;
		// the base (delay) term never does. congest >= base, so the blend
		// stays >= base and the delay-driven A* floors remain admissible.
		congest = (1-c)*congest + c*nc.base[id]
	}
	return congest + tieBreak(nc.seed, id)
}

// congestion is the PathFinder congestion cost of a node that u other
// nets use, to one more net: (base + history) * (1 + presFac * overuse),
// where overuse counts the users beyond capacity if the net took it.
func congestion(base, history, presFac float64, u, capacity int) float64 {
	pres := 1.0
	if over := u + 1 - capacity; over > 0 {
		pres += presFac * float64(over)
	}
	return (base + history) * pres
}

// tieBreak is the deterministic per-(net, node) cost perturbation in
// [0, 1e-4): a xorshift-style mix of the net's seed and the node ID. It is
// a pure function, so the routing stays identical across worker counts.
func tieBreak(seed uint32, id int) float64 {
	h := seed ^ uint32(id)*0x9E3779B9
	h ^= h >> 16
	h *= 0x45d9f3b
	h ^= h >> 16
	return float64(h&0xffff) * (1e-4 / 65536)
}

// WirelengthUsed counts the wire segments occupied across all nets.
func (r *Result) WirelengthUsed() int {
	total := 0
	for _, nr := range r.Routes {
		if nr == nil {
			continue
		}
		for _, n := range nr.NodeList() {
			if r.Graph.Type[n].IsWire() {
				total += int(r.Graph.Span[n])
			}
		}
	}
	return total
}

// MinChannelWidth binary-searches the smallest channel width that routes
// successfully, returning that width and its routing. failed lists widths
// the caller already found unroutable on this placement under these
// options (a fixed-width route it ran before escalating): routing is
// deterministic, so the search treats them as failed trials and never
// routes them again.
func MinChannelWidth(p *place.Problem, pl *place.Placement, lo, hi int, opts Options, failed ...int) (int, *Result, error) {
	if lo < 1 {
		lo = 1
	}
	build := func(w int) (*Result, error) {
		a := p.Arch.Clone()
		a.Routing.ChannelWidth = w
		g, err := opts.Cache.Get(a, opts.Obs)
		if err != nil {
			return nil, err
		}
		return Route(p, pl, g, opts)
	}
	// Ensure hi is routable, growing if needed. Routing is deterministic,
	// so a width that failed here (or before the search) fails again: the
	// growth loop and the binary search below skip it instead of routing
	// it a second time.
	var best *Result
	bestW := -1
	trials := 0
	known := make(map[int]bool, len(failed))
	for _, w := range failed {
		known[w] = true
	}
	defer func() { opts.Obs.Add("route.width_trials", int64(trials)) }()
	for {
		if err := opts.ctxErr(); err != nil {
			return 0, nil, fmt.Errorf("route: %w", err)
		}
		if !known[hi] {
			trials++
			r, err := build(hi)
			if err == nil && r.Success {
				best, bestW = r, hi
				break
			}
			// Cancellation is not congestion; wider channels cannot fix it.
			// ErrNoPath, by contrast, may clear up: extra tracks can restore
			// connectivity through a defect-riddled channel.
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return 0, nil, err
			}
			known[hi] = true
		}
		if hi > 512 {
			return 0, nil, fmt.Errorf("route: %w even at W=%d", ErrUnroutable, hi)
		}
		hi *= 2
	}
	for lo < bestW {
		if err := opts.ctxErr(); err != nil {
			return 0, nil, fmt.Errorf("route: %w", err)
		}
		mid := (lo + bestW) / 2
		if known[mid] {
			lo = mid + 1
			continue
		}
		trials++
		r, err := build(mid)
		if err == nil && r.Success {
			best, bestW = r, mid
		} else {
			lo = mid + 1
		}
	}
	return bestW, best, nil
}
