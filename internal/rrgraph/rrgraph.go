// Package rrgraph builds the routing-resource graph of the island-style
// fabric: sources, sinks, block pins and channel wire segments, connected
// through connection boxes (Fc) and disjoint switch boxes (Fs=3), following
// the VPR model the paper's flow relies on. The graph is consumed by the
// PathFinder router, the timing analyzer, the power model and the bitstream
// generator.
package rrgraph

import (
	"fmt"
	"sort"

	"fpgaflow/internal/arch"
)

// NodeType classifies routing-resource nodes.
type NodeType int

const (
	// Source is the logical origin of a net inside a block.
	Source NodeType = iota
	// Sink is the logical destination inside a block.
	Sink
	// OPin is a physical block output pin.
	OPin
	// IPin is a physical block input pin.
	IPin
	// ChanX is a horizontal wire segment.
	ChanX
	// ChanY is a vertical wire segment.
	ChanY
)

func (t NodeType) String() string {
	switch t {
	case Source:
		return "SOURCE"
	case Sink:
		return "SINK"
	case OPin:
		return "OPIN"
	case IPin:
		return "IPIN"
	case ChanX:
		return "CHANX"
	case ChanY:
		return "CHANY"
	}
	return fmt.Sprintf("NodeType(%d)", int(t))
}

// SiteKind classifies grid locations.
type SiteKind int

const (
	// SiteEmpty marks corners of the I/O ring.
	SiteEmpty SiteKind = iota
	// SiteCLB is a logic tile.
	SiteCLB
	// SiteIO is a pad tile on the perimeter ring.
	SiteIO
)

// Node is one routing resource.
type Node struct {
	ID   int
	Type NodeType
	// X, Y locate the node: block coordinates for pins/sources/sinks, the
	// low tile coordinate for wires.
	X, Y int
	// Span is the number of tiles a wire covers (SegmentLength clipped at
	// the fabric edge); 0 for non-wires.
	Span int
	// Track is the channel track index for wires, -1 otherwise.
	Track int
	// Pin is the block pin index for IPin/OPin, -1 otherwise.
	Pin int
	// Capacity is the legal number of nets through this node.
	Capacity int
	// R is the driving-point resistance of the resource, C its capacitance.
	R, C float64
	// Edges lists the IDs of nodes reachable from this one.
	Edges []int
}

// Graph is the complete routing-resource graph plus site metadata. It is
// immutable once Build returns, so one graph per architecture is shared by
// routing, timing, power, bitstream generation and verification;
// defective fabric is a caller-owned overlay (internal/fault.Overlay).
type Graph struct {
	Arch  *arch.Arch
	Nodes []*Node
	// W is the channel width the graph was built with.
	W int

	// site lookup tables
	kind    [][]SiteKind
	source  [][]int
	sink    [][]int
	opins   [][][]int // [x][y][localOutputPin] -> node id
	ipins   [][][]int
	chanxID map[chanKey]int
	chanyID map[chanKey]int
	edges   int
	// configFirst[n] is the ordinal of node n's first configurable edge
	// (see ConfigEdge); configFirst[len(Nodes)] is their count.
	configFirst []int32

	// look is the per-segment-type cost lookahead summary built once per
	// graph (see Lookahead).
	look *Lookahead
}

// Lookahead is the per-segment-type delay/cost summary the router's A*
// search derives its admissible cost-to-target lower bounds from. It is
// built once per routing-resource graph during Build, so graphs served
// from a Cache carry it for free: a cache hit hands the router both the
// fabric and its precomputed lookahead.
//
// All values are lower bounds over the pristine fabric. Masking nodes
// dead or removing switch edges only shrinks the usable graph, so the
// bounds stay admissible for defective fabrics; congestion (present/history
// factors) only raises node costs above their base, so they stay
// admissible across PathFinder iterations.
type Lookahead struct {
	// MaxSpan is the longest wire span in tiles (segment length clipped at
	// the fabric edge): an upper bound on the tiles one wire hop advances.
	MaxSpan int
	// MinWireRC is the smallest R*C product over all channel wires: the
	// floor for any delay-driven wire base cost.
	MinWireRC float64
	// MinRCBySpan maps each wire span class to the smallest R*C product of
	// wires with that span (the per-segment-type delay table).
	MinRCBySpan map[int]float64
	// Wires is the number of channel wire nodes (0 disables lookahead:
	// a fabric with no wires has nothing to estimate over).
	Wires int

	// Exact wire-hop distance tables, built for unit-length segments (the
	// paper architecture). The disjoint switch box never changes a path's
	// track, and for SegmentLength 1 every track's channel graph is the
	// same translation-invariant lattice, so the minimum number of wire
	// nodes between a wire and a target block depends only on the
	// orientation and the (dx, dy) offset. distX/distY hold a BFS over
	// that lattice on an unbounded virtual fabric: the real fabric is a
	// subgraph (edges clip wires away, defects remove more), so the table
	// never overestimates the hops a real path needs — which keeps the
	// A* bound admissible — while being exact away from the fabric edge.
	distX, distY []uint16
	offX, offY   int // table center: index = (dx+offX) + (dy+offY)*nx
	nx, ny       int
}

// hopsUnreachable marks offsets the hop-table BFS never reached.
const hopsUnreachable = ^uint16(0)

// WireHops returns the minimum number of further wire nodes needed from a
// wire at offset (dx, dy) = (wire - target block) to reach a channel
// adjacent to the target block, for a vertical (ChanY) or horizontal
// (ChanX) wire. ok is false when no exact table exists (SegmentLength >
// 1) or the offset falls outside it; callers fall back to an analytic
// bound.
func (lk *Lookahead) WireHops(vertical bool, dx, dy int) (int, bool) {
	if lk.distX == nil {
		return 0, false
	}
	ix, iy := dx+lk.offX, dy+lk.offY
	if ix < 0 || ix >= lk.nx || iy < 0 || iy >= lk.ny {
		return 0, false
	}
	t := lk.distX
	if vertical {
		t = lk.distY
	}
	d := t[ix+iy*lk.nx]
	if d == hopsUnreachable {
		return 0, false
	}
	return int(d), true
}

// BlockHops returns the minimum number of wire nodes on any path between
// a pin of a block at offset (dx, dy) from the target block and a channel
// adjacent to the target block: one hop onto the cheapest of the source
// block's four adjacent channel positions, plus that wire's table
// distance.
func (lk *Lookahead) BlockHops(dx, dy int) (int, bool) {
	if lk.distX == nil {
		return 0, false
	}
	best, any := 0, false
	try := func(h int, ok bool) {
		if ok && (!any || h < best) {
			best, any = h, true
		}
	}
	// channelsAdjacent order: chanx below/above, chany left/right.
	try(lk.WireHops(false, dx, dy-1))
	try(lk.WireHops(false, dx, dy))
	try(lk.WireHops(true, dx-1, dy))
	try(lk.WireHops(true, dx, dy))
	if !any {
		return 0, false
	}
	return best + 1, true
}

// Lookahead returns the graph's cost-lookahead summary (never nil for a
// graph produced by Build).
func (g *Graph) Lookahead() *Lookahead { return g.look }

// buildLookahead scans the wire nodes once and fills g.look.
func (g *Graph) buildLookahead() {
	lk := &Lookahead{MinRCBySpan: make(map[int]float64)}
	for _, n := range g.Nodes {
		if n.Type != ChanX && n.Type != ChanY {
			continue
		}
		lk.Wires++
		if n.Span > lk.MaxSpan {
			lk.MaxSpan = n.Span
		}
		rc := n.R * n.C
		if lk.Wires == 1 || rc < lk.MinWireRC {
			lk.MinWireRC = rc
		}
		if cur, ok := lk.MinRCBySpan[n.Span]; !ok || rc < cur {
			lk.MinRCBySpan[n.Span] = rc
		}
	}
	if g.Arch.Routing.SegmentLength == 1 && lk.Wires > 0 {
		lk.buildHopTables(g.Arch.Cols, g.Arch.Rows)
	}
	g.look = lk
}

// buildHopTables runs the translation-invariant BFS behind WireHops. The
// virtual lattice is padded a few tiles past the largest queried offset
// so near-edge detours resolve inside the table; one flat uint16 grid per
// wire orientation, a few hundred KB at most.
func (lk *Lookahead) buildHopTables(cols, rows int) {
	const pad = 4
	lk.offX, lk.offY = cols+pad, rows+1+pad
	lk.nx, lk.ny = 2*lk.offX+1, 2*lk.offY+1
	n := lk.nx * lk.ny
	lk.distX = make([]uint16, n)
	lk.distY = make([]uint16, n)
	for i := range lk.distX {
		lk.distX[i] = hopsUnreachable
		lk.distY[i] = hopsUnreachable
	}
	idx := func(dx, dy int) (int, bool) {
		ix, iy := dx+lk.offX, dy+lk.offY
		if ix < 0 || ix >= lk.nx || iy < 0 || iy >= lk.ny {
			return 0, false
		}
		return ix + iy*lk.nx, true
	}
	type state struct {
		vertical bool
		dx, dy   int
	}
	var queue []state
	seed := func(vertical bool, dx, dy int) {
		t := lk.distX
		if vertical {
			t = lk.distY
		}
		if i, ok := idx(dx, dy); ok && t[i] == hopsUnreachable {
			t[i] = 0
			queue = append(queue, state{vertical, dx, dy})
		}
	}
	// Distance 0: the four channel positions adjacent to the target block
	// at the origin (chanx below/above, chany left/right) — a wire there
	// can feed the block's input pins directly.
	seed(false, 0, -1)
	seed(false, 0, 0)
	seed(true, -1, 0)
	seed(true, 0, 0)
	relax := func(d uint16, vertical bool, dx, dy int) {
		t := lk.distX
		if vertical {
			t = lk.distY
		}
		if i, ok := idx(dx, dy); ok && d+1 < t[i] {
			t[i] = d + 1
			queue = append(queue, state{vertical, dx, dy})
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		s := queue[qi]
		var d uint16
		if i, _ := idx(s.dx, s.dy); s.vertical {
			d = lk.distY[i]
		} else {
			d = lk.distX[i]
		}
		// The BFS runs backward, but every switch-box connection is a
		// bidirectional pass transistor, so forward adjacency applies. A
		// chanx wire at (x, y) touches switch points (x-1, y) and (x, y);
		// each switch point (px, py) joins chanx (px, py), (px+1, py) and
		// chany (px, py), (px, py+1) on the same track.
		if !s.vertical {
			relax(d, false, s.dx-1, s.dy)
			relax(d, false, s.dx+1, s.dy)
			relax(d, true, s.dx-1, s.dy)
			relax(d, true, s.dx-1, s.dy+1)
			relax(d, true, s.dx, s.dy)
			relax(d, true, s.dx, s.dy+1)
		} else {
			relax(d, true, s.dx, s.dy-1)
			relax(d, true, s.dx, s.dy+1)
			relax(d, false, s.dx, s.dy-1)
			relax(d, false, s.dx+1, s.dy-1)
			relax(d, false, s.dx, s.dy)
			relax(d, false, s.dx+1, s.dy)
		}
	}
}

type chanKey struct{ x, y, track int }

// Kind returns the site kind at grid location (x, y); the full grid spans
// x in [0, Cols+1], y in [0, Rows+1].
func (g *Graph) Kind(x, y int) SiteKind { return g.kind[x][y] }

// SourceAt returns the source node ID of the block at (x, y), or -1.
func (g *Graph) SourceAt(x, y int) int { return g.source[x][y] }

// SinkAt returns the sink node ID of the block at (x, y), or -1.
func (g *Graph) SinkAt(x, y int) int { return g.sink[x][y] }

// OPins returns the output-pin node IDs of the block at (x, y).
func (g *Graph) OPins(x, y int) []int { return g.opins[x][y] }

// IPins returns the input-pin node IDs of the block at (x, y).
func (g *Graph) IPins(x, y int) []int { return g.ipins[x][y] }

// NumEdges returns the total directed edge count.
func (g *Graph) NumEdges() int { return g.edges }

// WireID returns the node ID of the channel wire covering tile (x, y) on
// the given track: a ChanY wire when vertical, ChanX otherwise. The second
// result is false when no such wire exists (off-fabric coordinates or a
// track beyond the built channel width).
func (g *Graph) WireID(vertical bool, x, y, track int) (int, bool) {
	if vertical {
		id, ok := g.chanyID[chanKey{x, y, track}]
		return id, ok
	}
	id, ok := g.chanxID[chanKey{x, y, track}]
	return id, ok
}

// SwitchPointWires returns the distinct wire nodes incident to the switch
// point (x, y) on the given track under the disjoint switch pattern:
// the horizontal wires covering tiles x and x+1 at height y and the
// vertical wires covering tiles y and y+1 at column x.
func (g *Graph) SwitchPointWires(x, y, track int) []int {
	var ids []int
	add := func(id int, ok bool) {
		if !ok {
			return
		}
		for _, e := range ids {
			if e == id {
				return
			}
		}
		ids = append(ids, id)
	}
	add(g.WireID(false, x, y, track))
	add(g.WireID(false, x+1, y, track))
	add(g.WireID(true, x, y, track))
	add(g.WireID(true, x, y+1, track))
	return ids
}

// HasEdge reports whether the directed edge from -> to exists. Both IDs
// must be valid node indices.
func (g *Graph) HasEdge(from, to int) bool {
	for _, e := range g.Nodes[from].Edges {
		if e == to {
			return true
		}
	}
	return false
}

// GridWidth and GridHeight return the full grid extent including I/O ring.
func (g *Graph) GridWidth() int  { return g.Arch.Cols + 2 }
func (g *Graph) GridHeight() int { return g.Arch.Rows + 2 }

// Build constructs the routing-resource graph for the architecture.
func Build(a *arch.Arch) (*Graph, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	g := &Graph{
		Arch:    a,
		W:       a.Routing.ChannelWidth,
		chanxID: make(map[chanKey]int),
		chanyID: make(map[chanKey]int),
	}
	cols, rows := a.Cols, a.Rows
	gw, gh := cols+2, rows+2
	g.kind = make([][]SiteKind, gw)
	g.source = make([][]int, gw)
	g.sink = make([][]int, gw)
	g.opins = make([][][]int, gw)
	g.ipins = make([][][]int, gw)
	for x := 0; x < gw; x++ {
		g.kind[x] = make([]SiteKind, gh)
		g.source[x] = make([]int, gh)
		g.sink[x] = make([]int, gh)
		g.opins[x] = make([][]int, gh)
		g.ipins[x] = make([][]int, gh)
		for y := 0; y < gh; y++ {
			g.source[x][y], g.sink[x][y] = -1, -1
			switch {
			case x >= 1 && x <= cols && y >= 1 && y <= rows:
				g.kind[x][y] = SiteCLB
			case (x == 0 || x == cols+1) != (y == 0 || y == rows+1):
				g.kind[x][y] = SiteIO
			default:
				g.kind[x][y] = SiteEmpty
			}
		}
	}

	g.buildBlockNodes()
	g.buildWires()
	g.buildConnectionBoxes()
	g.buildSwitchBoxes()
	g.buildLookahead()
	g.configFirst = make([]int32, len(g.Nodes)+1)
	var ord int32
	for i, n := range g.Nodes {
		g.configFirst[i] = ord
		for _, e := range n.Edges {
			if configurable(n, g.Nodes[e]) {
				ord++
			}
		}
		g.edges += len(n.Edges)
	}
	g.configFirst[len(g.Nodes)] = ord
	return g, nil
}

func isWire(n *Node) bool { return n.Type == ChanX || n.Type == ChanY }

// configurable reports whether the edge from -> to is a programmable
// connection with its own configuration bit: a wire-wire switch (numbered
// once, at its lower-ID end), an output pin onto a wire, or a wire onto an
// input pin. Source->OPin and IPin->Sink edges are hard-wired.
func configurable(from, to *Node) bool {
	switch {
	case isWire(from) && isWire(to):
		return from.ID < to.ID
	case from.Type == OPin:
		return isWire(to)
	default:
		return isWire(from) && to.Type == IPin
	}
}

// NumConfigEdges returns the number of configurable edges: the length of
// a bitstream's routing frame.
func (g *Graph) NumConfigEdges() int { return int(g.configFirst[len(g.Nodes)]) }

// ConfigEdge returns the ordinal of the configurable edge from -> to in
// [0, NumConfigEdges). Ordinals follow node order, then edge order within
// a node. A wire-wire switch is looked up at its lower-ID end in either
// direction. ok is false when no such configurable edge exists. Both IDs
// must be valid node indices.
func (g *Graph) ConfigEdge(from, to int) (ord int, ok bool) {
	if isWire(g.Nodes[from]) && isWire(g.Nodes[to]) && from > to {
		from, to = to, from
	}
	n := g.Nodes[from]
	ord = int(g.configFirst[from])
	for _, e := range n.Edges {
		if !configurable(n, g.Nodes[e]) {
			continue
		}
		if e == to {
			return ord, true
		}
		ord++
	}
	return 0, false
}

// ConfigEdgeAt returns the endpoints of the configurable edge with the
// given ordinal, which must lie in [0, NumConfigEdges).
func (g *Graph) ConfigEdgeAt(ord int) (from, to int) {
	from = sort.Search(len(g.Nodes), func(n int) bool { return int(g.configFirst[n+1]) > ord })
	k := ord - int(g.configFirst[from])
	n := g.Nodes[from]
	for _, e := range n.Edges {
		if configurable(n, g.Nodes[e]) {
			if k == 0 {
				return from, e
			}
			k--
		}
	}
	panic(fmt.Sprintf("rrgraph: configurable-edge ordinal %d out of range", ord))
}

func (g *Graph) newNode(t NodeType, x, y int) *Node {
	n := &Node{ID: len(g.Nodes), Type: t, X: x, Y: y, Track: -1, Pin: -1, Capacity: 1}
	g.Nodes = append(g.Nodes, n)
	return n
}

func (g *Graph) addEdge(from, to int) {
	g.Nodes[from].Edges = append(g.Nodes[from].Edges, to)
}

// buildBlockNodes creates source/sink/pin nodes for every CLB and IO site.
func (g *Graph) buildBlockNodes() {
	a := g.Arch
	tech := a.Tech
	for x := 0; x < g.GridWidth(); x++ {
		for y := 0; y < g.GridHeight(); y++ {
			switch g.kind[x][y] {
			case SiteCLB:
				src := g.newNode(Source, x, y)
				src.Capacity = a.CLB.Outputs()
				g.source[x][y] = src.ID
				snk := g.newNode(Sink, x, y)
				snk.Capacity = a.CLB.I
				g.sink[x][y] = snk.ID
				for p := 0; p < a.CLB.Outputs(); p++ {
					op := g.newNode(OPin, x, y)
					op.Pin = a.CLB.I + p
					op.R = tech.RonMin // output buffer drive
					op.C = tech.CDiffMin
					g.opins[x][y] = append(g.opins[x][y], op.ID)
					g.addEdge(src.ID, op.ID)
				}
				for p := 0; p < a.CLB.I; p++ {
					ip := g.newNode(IPin, x, y)
					ip.Pin = p
					ip.C = tech.CGateMin * 4 // input buffer + local mux load
					g.ipins[x][y] = append(g.ipins[x][y], ip.ID)
					g.addEdge(ip.ID, snk.ID)
				}
			case SiteIO:
				src := g.newNode(Source, x, y)
				src.Capacity = a.IORate
				g.source[x][y] = src.ID
				snk := g.newNode(Sink, x, y)
				snk.Capacity = a.IORate
				g.sink[x][y] = snk.ID
				// One OPin/IPin pair per pad sub-slot so the bitstream can
				// attribute each routed net to a specific pad.
				for s := 0; s < a.IORate; s++ {
					op := g.newNode(OPin, x, y)
					op.Pin = s
					op.R = tech.RonMin
					op.C = tech.CDiffMin
					g.opins[x][y] = append(g.opins[x][y], op.ID)
					g.addEdge(src.ID, op.ID)
					ip := g.newNode(IPin, x, y)
					ip.Pin = s
					ip.C = tech.CGateMin * 4
					g.ipins[x][y] = append(g.ipins[x][y], ip.ID)
					g.addEdge(ip.ID, snk.ID)
				}
			}
		}
	}
}

// buildWires creates the channel segments with staggered starts.
func (g *Graph) buildWires() {
	a := g.Arch
	L := a.Routing.SegmentLength
	wm, sm := a.Routing.WireWidthMult, a.Routing.WireSpacingMult
	// Horizontal channels: y in 0..Rows, tiles x in 1..Cols.
	for y := 0; y <= a.Rows; y++ {
		for t := 0; t < g.W; t++ {
			start := 1
			if L > 1 {
				// Stagger so wire boundaries differ per track.
				off := t % L
				start = 1 - off
			}
			for x0 := start; x0 <= a.Cols; x0 += L {
				lo := x0
				if lo < 1 {
					lo = 1
				}
				hi := x0 + L - 1
				if hi > a.Cols {
					hi = a.Cols
				}
				if lo > hi {
					continue
				}
				n := g.newNode(ChanX, lo, y)
				n.Span = hi - lo + 1
				n.Track = t
				n.R = a.Tech.WireRes(float64(n.Span), wm)
				n.C = a.Tech.WireCap(float64(n.Span), wm, sm)
				for x := lo; x <= hi; x++ {
					g.chanxID[chanKey{x, y, t}] = n.ID
				}
			}
		}
	}
	// Vertical channels: x in 0..Cols, tiles y in 1..Rows.
	for x := 0; x <= a.Cols; x++ {
		for t := 0; t < g.W; t++ {
			start := 1
			if L > 1 {
				off := t % L
				start = 1 - off
			}
			for y0 := start; y0 <= a.Rows; y0 += L {
				lo := y0
				if lo < 1 {
					lo = 1
				}
				hi := y0 + L - 1
				if hi > a.Rows {
					hi = a.Rows
				}
				if lo > hi {
					continue
				}
				n := g.newNode(ChanY, x, lo)
				n.Span = hi - lo + 1
				n.Track = t
				n.R = a.Tech.WireRes(float64(n.Span), wm)
				n.C = a.Tech.WireCap(float64(n.Span), wm, sm)
				for y := lo; y <= hi; y++ {
					g.chanyID[chanKey{x, y, t}] = n.ID
				}
			}
		}
	}
}

// fcTracks returns the track indices a pin connects to given flexibility fc,
// spreading the choices with a per-pin offset.
func (g *Graph) fcTracks(fc float64, pin int) []int {
	n := int(fc*float64(g.W) + 0.5)
	if n < 1 {
		n = 1
	}
	if n > g.W {
		n = g.W
	}
	tracks := make([]int, 0, n)
	for i := 0; i < n; i++ {
		tracks = append(tracks, (pin+i*g.W/n)%g.W)
	}
	return tracks
}

// channelsAdjacent lists the (isX, x, y) channel coordinates bordering the
// block at (x, y).
func (g *Graph) channelsAdjacent(x, y int) [][3]int {
	a := g.Arch
	var out [][3]int
	// chanx below (y-1) and above (y); chanx spans tiles x in 1..Cols.
	if x >= 1 && x <= a.Cols {
		if y-1 >= 0 && y-1 <= a.Rows {
			out = append(out, [3]int{1, x, y - 1})
		}
		if y >= 0 && y <= a.Rows {
			out = append(out, [3]int{1, x, y})
		}
	}
	// chany left (x-1) and right (x); chany spans tiles y in 1..Rows.
	if y >= 1 && y <= a.Rows {
		if x-1 >= 0 && x-1 <= a.Cols {
			out = append(out, [3]int{0, x - 1, y})
		}
		if x >= 0 && x <= a.Cols {
			out = append(out, [3]int{0, x, y})
		}
	}
	return out
}

func (g *Graph) wireAt(isX int, x, y, track int) (int, bool) {
	if isX == 1 {
		id, ok := g.chanxID[chanKey{x, y, track}]
		return id, ok
	}
	id, ok := g.chanyID[chanKey{x, y, track}]
	return id, ok
}

// buildConnectionBoxes wires OPins onto tracks and tracks onto IPins.
// Pins are distributed round-robin over the block's adjacent channels.
func (g *Graph) buildConnectionBoxes() {
	a := g.Arch
	for x := 0; x < g.GridWidth(); x++ {
		for y := 0; y < g.GridHeight(); y++ {
			if g.kind[x][y] == SiteEmpty {
				continue
			}
			chans := g.channelsAdjacent(x, y)
			if len(chans) == 0 {
				continue
			}
			for pi, opID := range g.opins[x][y] {
				op := g.Nodes[opID]
				ch := chans[pi%len(chans)]
				for _, t := range g.fcTracks(a.Routing.FcOut, op.Pin) {
					if wid, ok := g.wireAt(ch[0], ch[1], ch[2], t); ok {
						g.addEdge(opID, wid)
					}
				}
			}
			for pi, ipID := range g.ipins[x][y] {
				ip := g.Nodes[ipID]
				ch := chans[pi%len(chans)]
				for _, t := range g.fcTracks(a.Routing.FcIn, ip.Pin) {
					if wid, ok := g.wireAt(ch[0], ch[1], ch[2], t); ok {
						g.addEdge(wid, ipID)
					}
				}
			}
		}
	}
}

// buildSwitchBoxes connects wires through the disjoint switch pattern: at
// every switch point, all incident wires with the same track index
// interconnect bidirectionally (pass-transistor switches conduct both ways).
func (g *Graph) buildSwitchBoxes() {
	type pt struct{ x, y, t int }
	incident := make(map[pt][]int)
	add := func(x, y, t, id int) {
		p := pt{x, y, t}
		for _, e := range incident[p] {
			if e == id {
				return
			}
		}
		incident[p] = append(incident[p], id)
	}
	// A chanx wire spanning tiles [lo,hi] at height y touches switch points
	// (lo-1, y) .. (hi, y). A chany wire spanning [lo,hi] at column x
	// touches (x, lo-1) .. (x, hi).
	seen := make(map[int]bool)
	for _, key := range sortedChanKeys(g.chanxID) {
		id := g.chanxID[key]
		if seen[id] {
			continue
		}
		seen[id] = true
		n := g.Nodes[id]
		for sx := n.X - 1; sx <= n.X+n.Span-1; sx++ {
			add(sx, n.Y, n.Track, id)
		}
	}
	for _, key := range sortedChanKeys(g.chanyID) {
		id := g.chanyID[key]
		if seen[id] {
			continue
		}
		seen[id] = true
		n := g.Nodes[id]
		for sy := n.Y - 1; sy <= n.Y+n.Span-1; sy++ {
			add(n.X, sy, n.Track, id)
		}
	}
	// Iterate switch points in sorted order: the edge lists (and therefore
	// the bitstream's canonical configuration-bit enumeration) must be
	// identical across builds of the same architecture.
	points := make([]pt, 0, len(incident))
	for p := range incident {
		points = append(points, p)
	}
	sort.Slice(points, func(i, j int) bool {
		a, b := points[i], points[j]
		if a.x != b.x {
			return a.x < b.x
		}
		if a.y != b.y {
			return a.y < b.y
		}
		return a.t < b.t
	})
	connected := make(map[[2]int]bool)
	for _, p := range points {
		ids := incident[p]
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				a, b := ids[i], ids[j]
				if a > b {
					a, b = b, a
				}
				k := [2]int{a, b}
				if connected[k] {
					continue
				}
				connected[k] = true
				g.addEdge(a, b)
				g.addEdge(b, a)
			}
		}
	}
}

func sortedChanKeys(m map[chanKey]int) []chanKey {
	keys := make([]chanKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.x != b.x {
			return a.x < b.x
		}
		if a.y != b.y {
			return a.y < b.y
		}
		return a.track < b.track
	})
	return keys
}
