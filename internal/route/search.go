package route

// The router's search core: a non-boxing binary heap, epoch-stamped flat
// node state reused across nets, the admissible A* cost lookahead derived
// from rrgraph.Lookahead, and the per-net tree search with incremental
// route-tree reuse. Everything here is a pure function of (graph, frozen
// congestion state, net), so the parallel batches in route.go stay
// bit-identical at every worker count.

import (
	"fmt"
	"sort"

	"fpgaflow/internal/fault"
	"fpgaflow/internal/rrgraph"
)

// pqItem is one frontier entry: f is the heap priority (the cost from the
// tree plus the admissible cost-to-target bound), g the cost from the
// tree alone (compared against dist to drop stale entries).
type pqItem struct {
	f, g float64
	node int32
}

// pq is a plain binary min-heap ordered by f. It deliberately avoids
// container/heap: the interface-based API boxes every item, and the
// router pushes millions of entries per run — heap traffic is the
// routing hot path.
//
// push and pop sift a hole instead of swapping: the moving item is held
// aside and written once where the sift stops. They make exactly the
// comparisons a swapping sift makes (push stops at the first parent with
// parent.f <= f; pop descends to the right child only when it is strictly
// smaller than the left, and stops at the first child that is not
// strictly smaller than the item), so the heap array — and with it the
// pop order, ties included — is the same one a swapping heap produces
// (heap_test.go holds such a heap as the reference).
type pq []pqItem

func (q *pq) push(it pqItem) {
	*q = append(*q, it)
	s := *q
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent].f <= it.f {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = it
}

func (q *pq) pop() pqItem {
	s := *q
	top := s[0]
	n := len(s) - 1
	x := s[n]
	s = s[:n]
	*q = s
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && s[r].f < s[c].f {
			c = r
		}
		if !(s[c].f < x.f) {
			break
		}
		s[i] = s[c]
		i = c
	}
	if n > 0 {
		s[i] = x
	}
	return top
}

// scratch holds per-worker search state over flat slice-indexed RR-node
// arrays, generation-stamped so clearing between nets and searches is
// O(1): no per-net allocation and no clearing loops over the node array.
type scratch struct {
	// node is the per-search Dijkstra/A* state of every RR node; cur is
	// the current search's epoch.
	node []nodeState
	cur  uint32

	// own marks the net's previous route (own[i] == ownCur): its usage is
	// subtracted during cost evaluation so the net is not repelled by the
	// congestion it itself caused last iteration.
	own    []uint32
	ownCur uint32

	// tree marks route-tree membership while one net is routed
	// (tree[i] == treeCur); treeList keeps the deterministic insertion
	// order the searches seed their frontier from.
	tree     []uint32
	treeCur  uint32
	treeList []int

	// q is the frontier heap, reused across searches.
	q pq
	// pops counts priority-queue pops across searches (search effort);
	// reused counts sinks whose route-tree paths survived a rip-up.
	pops   int64
	reused int64
}

// nodeState is one node's search state, kept together so a relaxation
// touches one 16-byte slot: cost from the tree, predecessor node, and the
// search epoch that invalidates both.
type nodeState struct {
	dist float64
	prev int32
	gen  uint32
}

func newScratch(n int) *scratch {
	return &scratch{node: make([]nodeState, n), own: make([]uint32, n), tree: make([]uint32, n)}
}

func (s *scratch) reset() { s.cur++ }

func (s *scratch) seen(n int) bool { return s.node[n].gen == s.cur }

func (s *scratch) set(n int, d float64, p int32) { s.node[n] = nodeState{dist: d, prev: p, gen: s.cur} }

// setOwn stamps the node set of the net's previous route (nil = none).
func (s *scratch) setOwn(nr *NetRoute) {
	s.ownCur++
	if nr == nil {
		return
	}
	for _, n := range nr.NodeList() {
		s.own[n] = s.ownCur
	}
}

func (s *scratch) isOwn(n int) bool { return s.own[n] == s.ownCur }

func (s *scratch) resetTree() {
	s.treeCur++
	s.treeList = s.treeList[:0]
}

func (s *scratch) addTree(n int) {
	if s.tree[n] != s.treeCur {
		s.tree[n] = s.treeCur
		s.treeList = append(s.treeList, n)
	}
}

func (s *scratch) inTree(n int) bool { return s.tree[n] == s.treeCur }

// heur turns the graph's precomputed rrgraph.Lookahead into admissible
// cost-to-target lower bounds for the A* search. Every bound is derived
// from floors of the PathFinder node-cost function: base costs are
// multiplied by a present factor >= 1 and have history >= 0 added, so a
// node never costs less than its base, and masking defects only removes
// options. The bounds therefore never overestimate, which is the whole
// correctness requirement — A* returns exactly the paths Dijkstra would.
type heur struct {
	// typ, x, y and span are the graph's node kind and geometry arrays.
	typ  []rrgraph.NodeType
	x, y []int32
	span []int32
	// lk carries the graph's precomputed lookahead, including the exact
	// wire-hop tables on unit-segment fabrics.
	lk *rrgraph.Lookahead
	// minHop is the smallest possible cost of one wire node.
	minHop float64
	// minTile is the smallest possible wire cost per tile advanced
	// (min over segment types of base cost / span).
	minTile float64
	// pinTail is the unavoidable IPin+Sink tail cost of finishing a path.
	pinTail float64
	// opinCost is the minimum cost of the output pin a Source still has to
	// traverse (pins carry no RC, so this is the bare base cost).
	opinCost float64
	// sinkCost is the minimum cost of the final sink node alone.
	sinkCost float64
	maxSpan  int
	enabled  bool
}

// newHeur builds the per-run heuristic from the graph's lookahead and the
// run's cost options. enabled=false (Options.NoLookahead) turns the search
// into plain Dijkstra.
func newHeur(g *rrgraph.Graph, delayDriven bool, delayNorm float64, enabled bool) *heur {
	h := &heur{typ: g.Type, x: g.X, y: g.Y, span: g.Span, enabled: enabled, sinkCost: 0.1}
	lk := g.Lookahead()
	if lk == nil || lk.Wires == 0 || lk.MaxSpan < 1 {
		h.enabled = false
		return h
	}
	wireBase := func(rc float64) float64 {
		if delayDriven && delayNorm > 0 {
			return 0.3 + 2*rc/delayNorm
		}
		return 1.0
	}
	h.lk = lk
	h.maxSpan = lk.MaxSpan
	h.minHop = wireBase(lk.MinWireRC)
	h.minTile = h.minHop / float64(lk.MaxSpan)
	for span, rc := range lk.MinRCBySpan {
		if pt := wireBase(rc) / float64(span); pt < h.minTile {
			h.minTile = pt
		}
	}
	// Pin base costs: 1.0 flat, or 0.3 delay-driven (pins have no RC, so
	// their R*C term vanishes).
	if delayDriven && delayNorm > 0 {
		h.opinCost = 0.3
		h.pinTail = 0.3 + h.sinkCost
	} else {
		h.opinCost = 1.0
		h.pinTail = 1.0 + h.sinkCost
	}
	return h
}

// bound returns the admissible lower bound on the cost of reaching the
// target sink, which sits at (tx, ty), from node id. Callers check
// h.enabled first.
//
// The wire bound is the max of two admissible floors over the remaining
// distance (dx, dy) from the node's tile extent to the target block:
//
//   - hop bound: covering one axis takes at least ceil((d-2)/maxSpan)
//     wires of that orientation (2 tiles of slack absorb switch-point
//     overhang and the one free column/row of cross-orientation block
//     adjacency), each costing at least minHop;
//   - per-tile bound: a wire of span s costs at least s*minTile, so
//     covering dx+dy tiles (minus the same slack per axis) costs at
//     least (dx+dy-4)*minTile.
//
// Both orientations' wires are disjoint node sets, so the per-axis hop
// counts add. A node that is not the target still needs an IPin and the
// sink itself (connection boxes only reach sinks through input pins),
// which is the pinTail term.
//
// search drops dead ends before bounding them (see search), so bound sees
// an IPin only on the target's tile and a Sink only as the target itself.
func (h *heur) bound(id, target, tx, ty int) float64 {
	if id == target {
		return 0
	}
	t := h.typ[id]
	x, y := int(h.x[id]), int(h.y[id])
	var dx, dy int
	srcTail := 0.0
	switch t {
	case rrgraph.ChanX:
		if hops, ok := h.lk.WireHops(false, x-tx, y-ty); ok {
			return float64(hops)*h.minHop + h.pinTail
		}
		dx = axisDist(x, x+int(h.span[id])-1, tx)
		dy = minInt(absInt(y-ty), absInt(y+1-ty))
	case rrgraph.ChanY:
		if hops, ok := h.lk.WireHops(true, x-tx, y-ty); ok {
			return float64(hops)*h.minHop + h.pinTail
		}
		dy = axisDist(y, y+int(h.span[id])-1, ty)
		dx = minInt(absInt(x-tx), absInt(x+1-tx))
	case rrgraph.IPin:
		// An input pin's only successor is its own sink, and search bounds
		// only the pins on the target's tile, whose sink is the target.
		return h.sinkCost
	default: // OPin, Source; search bounds no Sink but the target
		if t == rrgraph.Source {
			// A source still has to traverse an output pin.
			srcTail = h.opinCost
		}
		if hops, ok := h.lk.BlockHops(x-tx, y-ty); ok {
			return float64(hops)*h.minHop + h.pinTail + srcTail
		}
		dx = absInt(x - tx)
		dy = absInt(y - ty)
	}
	wires := float64(hopsLB(dx, h.maxSpan)+hopsLB(dy, h.maxSpan)) * h.minHop
	if alt := float64(dx+dy-4) * h.minTile; alt > wires {
		wires = alt
	}
	return wires + h.pinTail + srcTail
}

// hopsLB lower-bounds the same-orientation wires needed to cover d tiles
// on one axis: 2 tiles of slack, each wire advances at most maxSpan.
func hopsLB(d, maxSpan int) int {
	d -= 2
	if d <= 0 {
		return 0
	}
	return (d + maxSpan - 1) / maxSpan
}

func axisDist(lo, hi, t int) int {
	if t < lo {
		return lo - t
	}
	if t > hi {
		return t - hi
	}
	return 0
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// search finds the cheapest path from the current tree (sc.treeList) to
// target under the net's node cost nc. With h.enabled this is A* ordered
// by g + h.bound(node); otherwise it is plain Dijkstra. Tree nodes cost
// nothing to reuse. When sourceLocked, expansion out of the source node is
// forbidden (the output pin is already chosen).
//
// The bound never overestimates, so the first pop of the target carries
// an optimal cost: every other frontier entry has f >= the popped f, and
// any path through it costs at least its f. (The relaxation re-pushes a
// node whenever a cheaper g is found, so this holds even for bounds that
// are admissible but not consistent.)
//
// Dead ends are never pushed, at either push site. The graph gives every
// tile one sink, and an input pin's only out-edge goes to its own tile's
// sink, so an input pin off the target's tile and any sink but the target
// lie on no path to the target. Skipping them before their cost is
// evaluated is the same as giving them an infinite bound, which is still
// admissible, so the first pop of the target stays optimal. The test reads
// only the node's type and tile, and applies in Dijkstra mode too.
//
// The tree seeds are expanded eagerly, in treeList order, instead of
// going through the heap: every seed has cost 0, so this is exactly what
// the pop loop would do — except that when two seeds reach a neighbor at
// identical cost, the winner is now fixed by tree insertion order rather
// than by how the heap happens to order equal keys. That keeps the routed
// tree identical whether the frontier is ordered by g (Dijkstra) or by
// g + h (A*), which is what the lookahead equivalence test asserts.
func (sc *scratch) search(g *rrgraph.Graph, ov *fault.Overlay, target, source int, sourceLocked bool, nc *netCost, h *heur) ([]int, error) {
	const unseen = -1
	sc.reset()
	sc.q = sc.q[:0]
	q := &sc.q
	astar := h.enabled
	edgeStart, edgeTo := g.EdgeStart, g.EdgeTo
	typ, xs, ys := g.Type, g.X, g.Y
	tx32, ty32 := xs[target], ys[target]
	tx, ty := int(tx32), int(ty32)
	for _, n := range sc.treeList {
		if sourceLocked && n == source {
			continue
		}
		sc.set(n, 0, unseen)
	}
	if sc.seen(target) {
		// The target is already part of the tree (two sink blocks packed
		// into the same cluster share a sink node): a single-node path.
		return []int{target}, nil
	}
	for _, n := range sc.treeList {
		if sourceLocked && n == source {
			continue
		}
		for k := edgeStart[n]; k < edgeStart[n+1]; k++ {
			e := int(edgeTo[k])
			if typ[e] == rrgraph.IPin && (xs[e] != tx32 || ys[e] != ty32) || typ[e] == rrgraph.Sink && e != target {
				continue // dead end: it cannot reach the target
			}
			if ov.Blocked(int(k), e) || sc.seen(e) {
				continue
			}
			c := nc.at(e)
			sc.set(e, c, int32(n))
			f := c
			if astar {
				f += h.bound(e, target, tx, ty)
			}
			q.push(pqItem{f: f, g: c, node: int32(e)})
		}
	}
	reached := false
	//fpga:hotloop
	for len(*q) > 0 {
		it := q.pop()
		sc.pops++
		id := int(it.node)
		if it.g > sc.node[id].dist {
			continue
		}
		if id == target {
			reached = true
			break
		}
		for k := edgeStart[id]; k < edgeStart[id+1]; k++ {
			e := int(edgeTo[k])
			if typ[e] == rrgraph.IPin && (xs[e] != tx32 || ys[e] != ty32) || typ[e] == rrgraph.Sink && e != target {
				continue // dead end: it cannot reach the target
			}
			if ov.Blocked(int(k), e) {
				continue // defective resource: route around it
			}
			c := it.g + nc.at(e)
			if st := &sc.node[e]; st.gen != sc.cur || c < st.dist {
				sc.set(e, c, it.node)
				f := c
				if astar {
					f += h.bound(e, target, tx, ty)
				}
				q.push(pqItem{f: f, g: c, node: int32(e)})
			}
		}
	}
	if !reached {
		return nil, fmt.Errorf("%w to node %d (%s at %d,%d)",
			ErrNoPath, target, g.Type[target], tx, ty)
	}
	// Walk the predecessor chain twice: once to size the path, once to
	// fill it back to front in source->sink order.
	length := 0
	for n := target; n != unseen; n = int(sc.node[n].prev) {
		length++
	}
	path := make([]int, length)
	for n, i := target, length-1; i >= 0; n, i = int(sc.node[n].prev), i-1 {
		path[i] = n
	}
	return path, nil
}

// reuseMinFanout is the sink count at which a dirty net switches from
// full rip-up to incremental route-tree reuse. High-fanout nets are the
// ones whose trees are expensive to rebuild and mostly untouched by any
// one congestion hotspot; low-fanout nets reroute whole, which keeps
// their convergence behavior identical to the classic algorithm.
const reuseMinFanout = 4

// routeNet routes one net: sequential cheapest paths, each seeded with
// the tree built so far. The net's Source node is only usable for the
// first path, pinning the net to a single output pin choice thereafter.
//
// When prev is the net's previous route and the net has at least
// reuseMinFanout sinks, a previous path that touches no overused (or
// defective) node and still attaches to the tree built from the
// earlier-indexed paths is kept verbatim: only the congested subtrees
// are ripped up and re-searched, and the searches seed their frontier
// from the kept tree. Sinks are processed strictly in index order for
// keep and search alike, preserving the DRC invariant that every path
// starts inside the tree of the paths before it. The keep decision
// depends only on prev and the overused predicate — both frozen per
// batch — so reuse is deterministic at every worker count.
func routeNet(g *rrgraph.Graph, ov *fault.Overlay, source int, sinks []int, prev *NetRoute, overused func(int) bool,
	nc *netCost, hr *heur, sc *scratch) (*NetRoute, error) {
	nr := &NetRoute{Paths: make([][]int, len(sinks))}
	sc.resetTree()
	sc.addTree(source)
	sourceLocked := false
	reuse := prev != nil && len(prev.Paths) == len(sinks) && len(sinks) >= reuseMinFanout
	for i, sink := range sinks {
		if reuse {
			path := prev.Paths[i]
			keep := len(path) > 0 && sc.inTree(path[0])
			if keep {
				for _, n := range path {
					if overused(n) || ov.Dead(n) {
						keep = false
						break
					}
				}
			}
			if keep {
				nr.Paths[i] = path
				for _, n := range path {
					sc.addTree(n)
				}
				sourceLocked = true
				sc.reused++
				continue
			}
		}
		path, err := sc.search(g, ov, sink, source, sourceLocked, nc, hr)
		if err != nil {
			return nil, err
		}
		nr.Paths[i] = path
		for _, n := range path {
			sc.addTree(n)
		}
		sourceLocked = true
	}
	return nr, nil
}

// NodeList returns the distinct RR nodes of the net in ascending ID
// order, computed once and cached (a route tree is never mutated after
// construction). The flat list replaces the per-call map allocations the
// occupancy and overuse scans used to pay on every iteration.
func (nr *NetRoute) NodeList() []int {
	if nr.nodes != nil {
		return nr.nodes
	}
	total := 0
	for _, p := range nr.Paths {
		total += len(p)
	}
	nodes := make([]int, 0, total)
	for _, p := range nr.Paths {
		nodes = append(nodes, p...)
	}
	sort.Ints(nodes)
	w := 0
	for _, n := range nodes {
		if w == 0 || n != nodes[w-1] {
			nodes[w] = n
			w++
		}
	}
	nr.nodes = nodes[:w]
	return nr.nodes
}
