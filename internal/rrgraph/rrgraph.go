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
type NodeType uint8

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

// IsWire reports whether t is a channel wire segment (ChanX or ChanY).
func (t NodeType) IsWire() bool { return t == ChanX || t == ChanY }

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

// Node is one routing resource, assembled from the graph's arrays by
// Graph.Node for callers off the hot paths (diagnostics, tests). Hot
// loops read the Graph's per-node slices directly.
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
}

// Graph is the complete routing-resource graph plus site metadata, laid
// out as flat arrays indexed by node ID: one slice per node attribute and
// the out-edges in compressed sparse row (CSR) form. It is immutable once
// Build returns, so one graph per architecture is shared by routing,
// timing, power, bitstream generation and verification; callers must not
// modify the slices. Defective fabric is a caller-owned overlay
// (internal/fault.Overlay).
type Graph struct {
	Arch *arch.Arch
	// W is the channel width the graph was built with.
	W int

	// Per-node attributes; see Node for their meaning.
	Type     []NodeType
	X, Y     []int32
	Span     []int32
	Track    []int32
	Pin      []int32
	Capacity []int32
	R, C     []float64

	// EdgeStart and EdgeTo hold the out-edges: node n's successors are
	// EdgeTo[EdgeStart[n]:EdgeStart[n+1]], in build order. An index k into
	// EdgeTo names one directed edge (fault.Overlay masks edges by it).
	EdgeStart []int32
	EdgeTo    []int32

	// site lookup tables
	kind   [][]SiteKind
	source [][]int
	sink   [][]int
	opins  [][][]int // [x][y][localOutputPin] -> node id
	ipins  [][][]int
	// chanx and chany map a (tile, track) to the wire covering it, -1
	// where there is none; see wireIndex.
	chanx, chany []int32
	// configFirst[n] is the ordinal of node n's first configurable edge
	// (see ConfigEdge); configFirst[NumNodes()] is their count.
	configFirst []int32

	// look is the per-segment-type cost lookahead summary built once per
	// graph (see Lookahead).
	look *Lookahead
}

// NumNodes returns the number of routing-resource nodes.
func (g *Graph) NumNodes() int { return len(g.Type) }

// Node assembles node id's attributes into a Node value.
func (g *Graph) Node(id int) Node {
	return Node{ID: id, Type: g.Type[id], X: int(g.X[id]), Y: int(g.Y[id]), Span: int(g.Span[id]),
		Track: int(g.Track[id]), Pin: int(g.Pin[id]), Capacity: int(g.Capacity[id]), R: g.R[id], C: g.C[id]}
}

// Edges returns the successors of node id (a view into EdgeTo).
func (g *Graph) Edges(id int) []int32 { return g.EdgeTo[g.EdgeStart[id]:g.EdgeStart[id+1]] }

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
	for id, t := range g.Type {
		if !t.IsWire() {
			continue
		}
		span := int(g.Span[id])
		lk.Wires++
		if span > lk.MaxSpan {
			lk.MaxSpan = span
		}
		rc := g.R[id] * g.C[id]
		if lk.Wires == 1 || rc < lk.MinWireRC {
			lk.MinWireRC = rc
		}
		if cur, ok := lk.MinRCBySpan[span]; !ok || rc < cur {
			lk.MinRCBySpan[span] = rc
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
func (g *Graph) NumEdges() int { return len(g.EdgeTo) }

// wireIndex returns the slot of (x, y, track) in the chanx/chany tables;
// ok is false for off-grid coordinates or a track beyond the channel width.
func (g *Graph) wireIndex(x, y, track int) (int, bool) {
	gw, gh := g.GridWidth(), g.GridHeight()
	if x < 0 || x >= gw || y < 0 || y >= gh || track < 0 || track >= g.W {
		return 0, false
	}
	return (x*gh+y)*g.W + track, true
}

// WireID returns the node ID of the channel wire covering tile (x, y) on
// the given track: a ChanY wire when vertical, ChanX otherwise. The second
// result is false when no such wire exists (off-fabric coordinates or a
// track beyond the built channel width).
func (g *Graph) WireID(vertical bool, x, y, track int) (int, bool) {
	i, ok := g.wireIndex(x, y, track)
	if !ok {
		return 0, false
	}
	id := g.chanx[i]
	if vertical {
		id = g.chany[i]
	}
	return int(id), id >= 0
}

// switchPoint lists the distinct wires incident to switch point (x, y) on
// the given track: the horizontal wires covering tiles x and x+1 at height
// y, then the vertical wires covering tiles y and y+1 at column x.
func (g *Graph) switchPoint(x, y, track int) (ids [4]int, n int) {
	add := func(id int, ok bool) {
		if !ok {
			return
		}
		for _, e := range ids[:n] {
			if e == id {
				return
			}
		}
		ids[n] = id
		n++
	}
	add(g.WireID(false, x, y, track))
	add(g.WireID(false, x+1, y, track))
	add(g.WireID(true, x, y, track))
	add(g.WireID(true, x, y+1, track))
	return ids, n
}

// SwitchPointWires returns the distinct wire nodes incident to the switch
// point (x, y) on the given track under the disjoint switch pattern:
// the horizontal wires covering tiles x and x+1 at height y and the
// vertical wires covering tiles y and y+1 at column x.
func (g *Graph) SwitchPointWires(x, y, track int) []int {
	ids, n := g.switchPoint(x, y, track)
	return append([]int(nil), ids[:n]...)
}

// EdgeIndex returns the index in EdgeTo of the directed edge from -> to;
// ok is false when the graph has no such edge. Both IDs must be valid node
// indices.
func (g *Graph) EdgeIndex(from, to int) (k int, ok bool) {
	for k := g.EdgeStart[from]; k < g.EdgeStart[from+1]; k++ {
		if int(g.EdgeTo[k]) == to {
			return int(k), true
		}
	}
	return 0, false
}

// GridWidth and GridHeight return the full grid extent including I/O ring.
func (g *Graph) GridWidth() int  { return g.Arch.Cols + 2 }
func (g *Graph) GridHeight() int { return g.Arch.Rows + 2 }

// Build constructs the routing-resource graph for the architecture. It
// sizes every per-node array once and lays the edges out in CSR form
// without a per-node list (see buildEdges).
func Build(a *arch.Arch) (*Graph, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	g := &Graph{Arch: a, W: a.Routing.ChannelWidth}
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

	g.allocNodes(g.countNodes())
	g.buildBlockNodes()
	g.buildWires()
	g.buildEdges()
	g.buildLookahead()
	g.numberConfigEdges()
	return g, nil
}

// countNodes returns the number of nodes buildBlockNodes and buildWires
// create.
func (g *Graph) countNodes() int {
	a := g.Arch
	n := 0
	for x := 0; x < g.GridWidth(); x++ {
		for y := 0; y < g.GridHeight(); y++ {
			switch g.kind[x][y] {
			case SiteCLB:
				n += 2 + a.CLB.Outputs() + a.CLB.I
			case SiteIO:
				n += 2 + 2*a.IORate
			}
		}
	}
	count := func(lo, hi int) { n++ }
	for t := 0; t < g.W; t++ {
		for y := 0; y <= a.Rows; y++ {
			segments(a.Cols, a.Routing.SegmentLength, t, count)
		}
		for x := 0; x <= a.Cols; x++ {
			segments(a.Rows, a.Routing.SegmentLength, t, count)
		}
	}
	return n
}

func (g *Graph) allocNodes(n int) {
	g.Type = make([]NodeType, 0, n)
	g.X, g.Y = make([]int32, 0, n), make([]int32, 0, n)
	g.Span, g.Track, g.Pin = make([]int32, 0, n), make([]int32, 0, n), make([]int32, 0, n)
	g.Capacity = make([]int32, 0, n)
	g.R, g.C = make([]float64, 0, n), make([]float64, 0, n)
}

// newNode appends a node with the given attributes and returns its ID.
// Track and Pin are -1 where they do not apply.
func (g *Graph) newNode(t NodeType, x, y, span, track, pin, capacity int, r, c float64) int {
	id := len(g.Type)
	g.Type = append(g.Type, t)
	g.X, g.Y = append(g.X, int32(x)), append(g.Y, int32(y))
	g.Span = append(g.Span, int32(span))
	g.Track = append(g.Track, int32(track))
	g.Pin = append(g.Pin, int32(pin))
	g.Capacity = append(g.Capacity, int32(capacity))
	g.R, g.C = append(g.R, r), append(g.C, c)
	return id
}

// configurable reports whether the edge from -> to is a programmable
// connection with its own configuration bit: a wire-wire switch (numbered
// once, at its lower-ID end), an output pin onto a wire, or a wire onto an
// input pin. Source->OPin and IPin->Sink edges are hard-wired.
func (g *Graph) configurable(from, to int) bool {
	ft, tt := g.Type[from], g.Type[to]
	switch {
	case ft.IsWire() && tt.IsWire():
		return from < to
	case ft == OPin:
		return tt.IsWire()
	default:
		return ft.IsWire() && tt == IPin
	}
}

// numberConfigEdges fills configFirst: configurable edges are numbered in
// node order, then edge order within a node.
func (g *Graph) numberConfigEdges() {
	n := g.NumNodes()
	g.configFirst = make([]int32, n+1)
	var ord int32
	for from := 0; from < n; from++ {
		g.configFirst[from] = ord
		for _, to := range g.Edges(from) {
			if g.configurable(from, int(to)) {
				ord++
			}
		}
	}
	g.configFirst[n] = ord
}

// NumConfigEdges returns the number of configurable edges: the length of
// a bitstream's routing frame.
func (g *Graph) NumConfigEdges() int { return int(g.configFirst[g.NumNodes()]) }

// ConfigEdge returns the ordinal of the configurable edge from -> to in
// [0, NumConfigEdges). Ordinals follow node order, then edge order within
// a node. A wire-wire switch is looked up at its lower-ID end in either
// direction. ok is false when no such configurable edge exists. Both IDs
// must be valid node indices.
func (g *Graph) ConfigEdge(from, to int) (ord int, ok bool) {
	if g.Type[from].IsWire() && g.Type[to].IsWire() && from > to {
		from, to = to, from
	}
	ord = int(g.configFirst[from])
	for _, e := range g.Edges(from) {
		if !g.configurable(from, int(e)) {
			continue
		}
		if int(e) == to {
			return ord, true
		}
		ord++
	}
	return 0, false
}

// ConfigEdgeAt returns the endpoints of the configurable edge with the
// given ordinal, which must lie in [0, NumConfigEdges).
func (g *Graph) ConfigEdgeAt(ord int) (from, to int) {
	from = sort.Search(g.NumNodes(), func(n int) bool { return int(g.configFirst[n+1]) > ord })
	k := ord - int(g.configFirst[from])
	for _, e := range g.Edges(from) {
		if g.configurable(from, int(e)) {
			if k == 0 {
				return from, int(e)
			}
			k--
		}
	}
	panic(fmt.Sprintf("rrgraph: configurable-edge ordinal %d out of range", ord))
}

// buildBlockNodes creates source/sink/pin nodes for every CLB and IO site.
func (g *Graph) buildBlockNodes() {
	a := g.Arch
	tech := a.Tech
	// Output pins carry the output buffer's drive and diffusion load;
	// input pins the input buffer plus local mux load.
	opin := func(x, y, pin int) int { return g.newNode(OPin, x, y, 0, -1, pin, 1, tech.RonMin, tech.CDiffMin) }
	ipin := func(x, y, pin int) int { return g.newNode(IPin, x, y, 0, -1, pin, 1, 0, tech.CGateMin*4) }
	for x := 0; x < g.GridWidth(); x++ {
		for y := 0; y < g.GridHeight(); y++ {
			switch g.kind[x][y] {
			case SiteCLB:
				g.source[x][y] = g.newNode(Source, x, y, 0, -1, -1, a.CLB.Outputs(), 0, 0)
				g.sink[x][y] = g.newNode(Sink, x, y, 0, -1, -1, a.CLB.I, 0, 0)
				g.opins[x][y] = make([]int, 0, a.CLB.Outputs())
				g.ipins[x][y] = make([]int, 0, a.CLB.I)
				for p := 0; p < a.CLB.Outputs(); p++ {
					g.opins[x][y] = append(g.opins[x][y], opin(x, y, a.CLB.I+p))
				}
				for p := 0; p < a.CLB.I; p++ {
					g.ipins[x][y] = append(g.ipins[x][y], ipin(x, y, p))
				}
			case SiteIO:
				g.source[x][y] = g.newNode(Source, x, y, 0, -1, -1, a.IORate, 0, 0)
				g.sink[x][y] = g.newNode(Sink, x, y, 0, -1, -1, a.IORate, 0, 0)
				g.opins[x][y] = make([]int, 0, a.IORate)
				g.ipins[x][y] = make([]int, 0, a.IORate)
				// One OPin/IPin pair per pad sub-slot so the bitstream can
				// attribute each routed net to a specific pad.
				for s := 0; s < a.IORate; s++ {
					g.opins[x][y] = append(g.opins[x][y], opin(x, y, s))
					g.ipins[x][y] = append(g.ipins[x][y], ipin(x, y, s))
				}
			}
		}
	}
}

// segments calls fn(lo, hi) for every wire segment of one track along a
// channel of tiles 1..n, with segment starts staggered per track so wire
// boundaries differ between tracks.
func segments(n, L, track int, fn func(lo, hi int)) {
	start := 1
	if L > 1 {
		start = 1 - track%L
	}
	for x0 := start; x0 <= n; x0 += L {
		lo, hi := max(x0, 1), min(x0+L-1, n)
		if lo <= hi {
			fn(lo, hi)
		}
	}
}

// buildWires creates the channel segments with staggered starts.
func (g *Graph) buildWires() {
	a := g.Arch
	L := a.Routing.SegmentLength
	wm, sm := a.Routing.WireWidthMult, a.Routing.WireSpacingMult
	size := g.GridWidth() * g.GridHeight() * g.W
	g.chanx, g.chany = make([]int32, size), make([]int32, size)
	for i := range g.chanx {
		g.chanx[i], g.chany[i] = -1, -1
	}
	wire := func(t NodeType, x, y, span, track int) int {
		return g.newNode(t, x, y, span, track, -1, 1,
			a.Tech.WireRes(float64(span), wm), a.Tech.WireCap(float64(span), wm, sm))
	}
	// Horizontal channels: y in 0..Rows, tiles x in 1..Cols.
	for y := 0; y <= a.Rows; y++ {
		for t := 0; t < g.W; t++ {
			segments(a.Cols, L, t, func(lo, hi int) {
				id := wire(ChanX, lo, y, hi-lo+1, t)
				for x := lo; x <= hi; x++ {
					i, _ := g.wireIndex(x, y, t)
					g.chanx[i] = int32(id)
				}
			})
		}
	}
	// Vertical channels: x in 0..Cols, tiles y in 1..Rows.
	for x := 0; x <= a.Cols; x++ {
		for t := 0; t < g.W; t++ {
			segments(a.Rows, L, t, func(lo, hi int) {
				id := wire(ChanY, x, lo, hi-lo+1, t)
				for y := lo; y <= hi; y++ {
					i, _ := g.wireIndex(x, y, t)
					g.chany[i] = int32(id)
				}
			})
		}
	}
}

// buildEdges lays the out-edges out in CSR form. The edge generators run
// twice, first counting every node's out-degree and then filling EdgeTo
// through per-node cursors, so no per-node list is ever grown. A node's
// edges keep the generators' order: block-internal edges, connection
// boxes, then switch boxes — the order the configurable-edge numbering
// (and so the bitstream format) is defined over.
func (g *Graph) buildEdges() {
	n := g.NumNodes()
	g.EdgeStart = make([]int32, n+1)
	g.emitEdges(func(from, _ int) { g.EdgeStart[from+1]++ })
	for i := 0; i < n; i++ {
		g.EdgeStart[i+1] += g.EdgeStart[i]
	}
	g.EdgeTo = make([]int32, g.EdgeStart[n])
	next := append([]int32(nil), g.EdgeStart[:n]...)
	g.emitEdges(func(from, to int) {
		g.EdgeTo[next[from]] = int32(to)
		next[from]++
	})
}

func (g *Graph) emitEdges(add func(from, to int)) {
	g.blockEdges(add)
	g.connectionBoxes(add)
	g.switchBoxes(add)
}

// blockEdges connects every block's source to its output pins and its
// input pins to its sink.
func (g *Graph) blockEdges(add func(from, to int)) {
	for x := 0; x < g.GridWidth(); x++ {
		for y := 0; y < g.GridHeight(); y++ {
			for _, op := range g.opins[x][y] {
				add(g.source[x][y], op)
			}
			for _, ip := range g.ipins[x][y] {
				add(ip, g.sink[x][y])
			}
		}
	}
}

// fcCount returns how many tracks a pin with flexibility fc connects to.
func (g *Graph) fcCount(fc float64) int {
	return max(1, min(g.W, int(fc*float64(g.W)+0.5)))
}

// channelsAdjacent lists the (vertical, x, y) channel coordinates
// bordering the block at (x, y).
func (g *Graph) channelsAdjacent(x, y int) (out [4]chanPos, n int) {
	a := g.Arch
	// chanx below (y-1) and above (y); chanx spans tiles x in 1..Cols.
	if x >= 1 && x <= a.Cols {
		if y-1 >= 0 && y-1 <= a.Rows {
			out[n], n = chanPos{false, x, y - 1}, n+1
		}
		if y >= 0 && y <= a.Rows {
			out[n], n = chanPos{false, x, y}, n+1
		}
	}
	// chany left (x-1) and right (x); chany spans tiles y in 1..Rows.
	if y >= 1 && y <= a.Rows {
		if x-1 >= 0 && x-1 <= a.Cols {
			out[n], n = chanPos{true, x - 1, y}, n+1
		}
		if x >= 0 && x <= a.Cols {
			out[n], n = chanPos{true, x, y}, n+1
		}
	}
	return out, n
}

type chanPos struct {
	vertical bool
	x, y     int
}

// connectionBoxes wires OPins onto tracks and tracks onto IPins. Pins are
// distributed round-robin over the block's adjacent channels, and each
// pin's tracks are spread with a per-pin offset.
func (g *Graph) connectionBoxes(add func(from, to int)) {
	a := g.Arch
	nOut, nIn := g.fcCount(a.Routing.FcOut), g.fcCount(a.Routing.FcIn)
	for x := 0; x < g.GridWidth(); x++ {
		for y := 0; y < g.GridHeight(); y++ {
			if g.kind[x][y] == SiteEmpty {
				continue
			}
			chans, nch := g.channelsAdjacent(x, y)
			if nch == 0 {
				continue
			}
			for pi, op := range g.opins[x][y] {
				ch := chans[pi%nch]
				pin := int(g.Pin[op])
				for i := 0; i < nOut; i++ {
					if wid, ok := g.WireID(ch.vertical, ch.x, ch.y, (pin+i*g.W/nOut)%g.W); ok {
						add(op, wid)
					}
				}
			}
			for pi, ip := range g.ipins[x][y] {
				ch := chans[pi%nch]
				pin := int(g.Pin[ip])
				for i := 0; i < nIn; i++ {
					if wid, ok := g.WireID(ch.vertical, ch.x, ch.y, (pin+i*g.W/nIn)%g.W); ok {
						add(wid, ip)
					}
				}
			}
		}
	}
}

// switchBoxes connects wires through the disjoint switch pattern: at every
// switch point, all incident wires with the same track index interconnect
// bidirectionally (pass-transistor switches conduct both ways). Switch
// points are visited in (x, y, track) order, so the edge lists — and the
// bitstream's configuration-bit enumeration — are identical across builds.
// Two wires meet at no more than one switch point (same-orientation
// neighbors only at their shared end, a horizontal and a vertical wire
// only at their crossing), so no switch is emitted twice.
func (g *Graph) switchBoxes(add func(from, to int)) {
	for x := 0; x <= g.Arch.Cols; x++ {
		for y := 0; y <= g.Arch.Rows; y++ {
			for t := 0; t < g.W; t++ {
				ids, n := g.switchPoint(x, y, t)
				for i := 0; i < n; i++ {
					for j := i + 1; j < n; j++ {
						a, b := min(ids[i], ids[j]), max(ids[i], ids[j])
						add(a, b)
						add(b, a)
					}
				}
			}
		}
	}
}
