package rrgraph

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fpgaflow/internal/arch"
)

func smallArch() *arch.Arch {
	a := arch.Paper()
	a.Rows, a.Cols = 3, 3
	a.Routing.ChannelWidth = 4
	return a
}

func TestBuildSmallGrid(t *testing.T) {
	g, err := Build(smallArch())
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() == 0 || g.NumEdges() == 0 {
		t.Fatal("empty graph")
	}
	// Site classification: corners empty, borders IO, inside CLB.
	if g.Kind(0, 0) != SiteEmpty || g.Kind(4, 4) != SiteEmpty {
		t.Error("corners not empty")
	}
	if g.Kind(0, 1) != SiteIO || g.Kind(2, 0) != SiteIO || g.Kind(4, 2) != SiteIO {
		t.Error("borders not IO")
	}
	if g.Kind(2, 2) != SiteCLB {
		t.Error("center not CLB")
	}
}

func TestBlockNodeWiring(t *testing.T) {
	a := smallArch()
	g, err := Build(a)
	if err != nil {
		t.Fatal(err)
	}
	x, y := 2, 2
	src, snk := g.SourceAt(x, y), g.SinkAt(x, y)
	if src < 0 || snk < 0 {
		t.Fatal("missing source/sink at CLB")
	}
	if got := g.Node(int(src)).Capacity; got != a.CLB.Outputs() {
		t.Errorf("source capacity = %d, want %d", got, a.CLB.Outputs())
	}
	if got := g.Node(int(snk)).Capacity; got != a.CLB.I {
		t.Errorf("sink capacity = %d, want %d", got, a.CLB.I)
	}
	if len(g.OPins(x, y)) != a.CLB.Outputs() || len(g.IPins(x, y)) != a.CLB.I {
		t.Fatalf("pin counts: %d opins, %d ipins", len(g.OPins(x, y)), len(g.IPins(x, y)))
	}
	// Source feeds exactly its OPins.
	if len(g.Edges(src)) != a.CLB.Outputs() {
		t.Errorf("source fanout = %d", len(g.Edges(src)))
	}
	// Every IPin feeds the sink.
	for _, ip := range g.IPins(x, y) {
		found := false
		for _, e := range g.Edges(ip) {
			if int(e) == snk {
				found = true
			}
		}
		if !found {
			t.Errorf("ipin %d does not reach sink", ip)
		}
	}
}

func TestOPinsReachTracks(t *testing.T) {
	g, err := Build(smallArch())
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range g.OPins(2, 2) {
		n := g.Node(int(op))
		wires := 0
		for _, e := range g.Edges(n.ID) {
			et := g.Node(int(e)).Type
			if et == ChanX || et == ChanY {
				wires++
			}
		}
		// Fc_out = 1: every OPin connects to all W tracks of its channel.
		if wires != g.W {
			t.Errorf("opin %d connects to %d wires, want %d", op, wires, g.W)
		}
	}
}

func TestWiresReachIPins(t *testing.T) {
	g, err := Build(smallArch())
	if err != nil {
		t.Fatal(err)
	}
	// Each IPin must be reachable from at least one wire.
	incoming := make(map[int]int)
	for id := range g.Type {
		n := g.Node(id)
		if n.Type != ChanX && n.Type != ChanY {
			continue
		}
		for _, e := range g.Edges(n.ID) {
			if g.Node(int(e)).Type == IPin {
				incoming[int(e)]++
			}
		}
	}
	for _, ip := range g.IPins(2, 2) {
		if incoming[ip] == 0 {
			t.Errorf("ipin %d unreachable from any wire", ip)
		}
	}
}

func TestDisjointSwitchBox(t *testing.T) {
	g, err := Build(smallArch())
	if err != nil {
		t.Fatal(err)
	}
	// Wire-to-wire edges must stay on the same track (disjoint pattern) and
	// be symmetric (pass transistors are bidirectional).
	edgeSet := make(map[[2]int]bool)
	for id := range g.Type {
		n := g.Node(id)
		if n.Type != ChanX && n.Type != ChanY {
			continue
		}
		for _, e := range g.Edges(n.ID) {
			to := g.Node(int(e))
			if to.Type != ChanX && to.Type != ChanY {
				continue
			}
			if to.Track != n.Track {
				t.Fatalf("edge %d->%d crosses tracks %d->%d", n.ID, to.ID, n.Track, to.Track)
			}
			edgeSet[[2]int{n.ID, int(e)}] = true
		}
	}
	for e := range edgeSet {
		if !edgeSet[[2]int{e[1], e[0]}] {
			t.Fatalf("switch edge %v not symmetric", e)
		}
	}
	if len(edgeSet) == 0 {
		t.Fatal("no switch-box edges")
	}
}

func TestFullConnectivitySourceToAnySink(t *testing.T) {
	g, err := Build(smallArch())
	if err != nil {
		t.Fatal(err)
	}
	// BFS from a corner-ish IO source must reach every sink in the fabric.
	src := g.SourceAt(0, 1)
	if src < 0 {
		t.Fatal("no IO source at (0,1)")
	}
	reach := make([]bool, g.NumNodes())
	reach[src] = true
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, e := range g.Edges(u) {
			if !reach[e] {
				reach[e] = true
				queue = append(queue, int(e))
			}
		}
	}
	for x := 0; x < g.GridWidth(); x++ {
		for y := 0; y < g.GridHeight(); y++ {
			if g.Kind(x, y) == SiteEmpty {
				continue
			}
			if snk := g.SinkAt(x, y); !reach[snk] {
				t.Errorf("sink at (%d,%d) unreachable", x, y)
			}
		}
	}
}

func TestFcFractional(t *testing.T) {
	a := smallArch()
	a.Routing.ChannelWidth = 8
	a.Routing.FcIn = 0.5
	a.Routing.FcOut = 0.25
	g, err := Build(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range g.OPins(2, 2) {
		wires := 0
		for _, e := range g.Edges(op) {
			if t := g.Node(int(e)).Type; t == ChanX || t == ChanY {
				wires++
			}
		}
		if wires != 2 { // 0.25 * 8
			t.Errorf("opin wires = %d, want 2", wires)
		}
	}
}

func TestSegmentLength2(t *testing.T) {
	a := smallArch()
	a.Routing.SegmentLength = 2
	g, err := Build(a)
	if err != nil {
		t.Fatal(err)
	}
	spans := map[int]int{}
	long := 0
	for id := range g.Type {
		n := g.Node(id)
		if n.Type == ChanX || n.Type == ChanY {
			spans[n.Span]++
			if n.Span == 2 {
				long++
			}
			if n.Span < 1 || n.Span > 2 {
				t.Fatalf("wire span %d", n.Span)
			}
		}
	}
	if long == 0 {
		t.Fatal("no length-2 wires built")
	}
	// Longer wires have higher R and C than length-1.
	var r1, r2 float64
	for id := range g.Type {
		n := g.Node(id)
		if n.Type == ChanX && n.Span == 1 {
			r1 = n.R
		}
		if n.Type == ChanX && n.Span == 2 {
			r2 = n.R
		}
	}
	if r2 <= r1 {
		t.Errorf("R(len2)=%g <= R(len1)=%g", r2, r1)
	}
}

func TestWireElectricalValues(t *testing.T) {
	a := smallArch()
	g, err := Build(a)
	if err != nil {
		t.Fatal(err)
	}
	for id := range g.Type {
		n := g.Node(id)
		if n.Type == ChanX || n.Type == ChanY {
			if n.R <= 0 || n.C <= 0 {
				t.Fatalf("wire %d has R=%g C=%g", n.ID, n.R, n.C)
			}
		}
	}
}

func TestIOSiteHasSingleChannel(t *testing.T) {
	g, err := Build(smallArch())
	if err != nil {
		t.Fatal(err)
	}
	// An IO pad on the left border can only reach the chany at x=0.
	for _, op := range g.OPins(0, 2) {
		for _, e := range g.Edges(op) {
			n := g.Node(int(e))
			if n.Type != ChanY || n.X != 0 {
				t.Errorf("left IO opin reaches %s at (%d,%d)", n.Type, n.X, n.Y)
			}
		}
	}
}

// TestGraphInvariantsProperty checks structural invariants across random
// architecture parameters.
func TestGraphInvariantsProperty(t *testing.T) {
	f := func(rowsRaw, colsRaw, wRaw, segRaw, fcRaw uint8) bool {
		a := arch.Paper()
		a.Rows = 1 + int(rowsRaw)%5
		a.Cols = 1 + int(colsRaw)%5
		a.Routing.ChannelWidth = 1 + int(wRaw)%12
		a.Routing.SegmentLength = 1 + int(segRaw)%4
		a.Routing.FcIn = 0.25 + float64(fcRaw%4)*0.25
		a.Routing.FcOut = a.Routing.FcIn
		g, err := Build(a)
		if err != nil {
			t.Logf("build: %v", err)
			return false
		}
		for id := range g.Type {
			n := g.Node(id)
			if n.Capacity < 1 {
				t.Logf("node %d capacity %d", n.ID, n.Capacity)
				return false
			}
			for _, e := range g.Edges(n.ID) {
				if e < 0 || int(e) >= g.NumNodes() {
					t.Logf("node %d edge %d out of range", n.ID, e)
					return false
				}
			}
			switch n.Type {
			case ChanX, ChanY:
				if n.Track < 0 || n.Track >= g.W {
					t.Logf("wire %d track %d", n.ID, n.Track)
					return false
				}
				if n.Span < 1 || n.Span > a.Routing.SegmentLength {
					t.Logf("wire %d span %d", n.ID, n.Span)
					return false
				}
			case Sink:
				if len(g.Edges(n.ID)) != 0 {
					t.Logf("sink %d has out-edges", n.ID)
					return false
				}
			}
		}
		// Every CLB sink reachable from every CLB source (full connectivity
		// under any Fc >= 0.25 with the disjoint box at these sizes).
		src := g.SourceAt(1, 1)
		reach := make([]bool, g.NumNodes())
		reach[src] = true
		queue := []int{src}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, e := range g.Edges(u) {
				if !reach[e] {
					reach[e] = true
					queue = append(queue, int(e))
				}
			}
		}
		return reach[g.SinkAt(a.Cols, a.Rows)]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Fatal(err)
	}
}

// graphDigests pin the complete structure of graphs built for a spread of
// architectures: every node attribute, and every node's out-edges in
// order. The configurable-edge numbering (the bitstream format) and the
// router's tie order both follow edge order, so a builder change must
// reproduce these bytes exactly.
var graphDigests = []struct {
	name         string
	edit         func(a *arch.Arch)
	nodes, edges int
	digest       string
}{
	{"paper-8x8-W16", func(a *arch.Arch) { a.Rows, a.Cols = 8, 8 }, 3712, 32896,
		"416aced25cd619774d4f083ccc87e66ec6ec2a2a6237ac576a77e567ad61e8e1"},
	{"W1", func(a *arch.Arch) { a.Routing.ChannelWidth = 1 }, 537, 1060,
		"7bd51cfd05c038bd6e8a855620dcfc9e609090d8b6f0682fe96056b23658b43a"},
	{"seg2", func(a *arch.Arch) { a.Routing.SegmentLength = 2 }, 968, 9276,
		"c44d9a6a1f32dec70fb1d338420c2889b530f9481fe34cf1fe075bcaba205008"},
	{"seg4-W6", func(a *arch.Arch) { a.Routing.SegmentLength, a.Routing.ChannelWidth = 4, 6 }, 608, 3468,
		"66a7fe90159d7e9cc479d842632e190e75f6b5cb7c3b3941eab6b3b4562ddb71"},
	{"tristate-seg3-fc", func(a *arch.Arch) {
		a.Routing.Switch = arch.SwitchTriState
		a.Routing.SegmentLength = 3
		a.Routing.FcIn, a.Routing.FcOut = 0.5, 0.25
	}, 865, 4970, "d8a93bd15b123d778c91dc0a575e57ffe25596a3b94a289ae9197efb3c0bc86a"},
	{"N2-I8-IO1", func(a *arch.Arch) { a.CLB.N, a.CLB.I, a.IORate = 2, 8, 1 }, 1096, 7788,
		"5fdc46402aa01ac3303cf2b6bc3b8e374ab18b01c25394b242e4d8783f91b695"},
	{"1x1-W3", func(a *arch.Arch) { a.Rows, a.Cols, a.Routing.ChannelWidth = 1, 1, 3 }, 55, 156,
		"0abf2c96455a5796afd49a1bda31f2f491584bbd664abd628b3e7f8bec6449d6"},
	{"seg5-3x7", func(a *arch.Arch) { a.Rows, a.Cols, a.Routing.SegmentLength = 3, 7, 5 }, 835, 8967,
		"78daa2976221472551b30a3c17a7968494359f3abc0f43ade2fddcb63bcbe3f4"},
}

// digestGraph builds the graph of one graphDigests architecture: the
// paper architecture on a 4x5 grid, then the row's edit.
func digestGraph(t *testing.T, edit func(a *arch.Arch)) *Graph {
	t.Helper()
	a := arch.Paper()
	a.Rows, a.Cols = 4, 5
	edit(a)
	g, err := Build(a)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGraphDigests(t *testing.T) {
	for _, c := range graphDigests {
		t.Run(c.name, func(t *testing.T) {
			g := digestGraph(t, c.edit)
			h := sha256.New()
			for id := 0; id < g.NumNodes(); id++ {
				n := g.Node(id)
				fmt.Fprintf(h, "%d %d %d %d %d %d %d %x %x:", n.Type, n.X, n.Y, n.Span, n.Track, n.Pin, n.Capacity,
					math.Float64bits(n.R), math.Float64bits(n.C))
				for _, e := range g.Edges(id) {
					fmt.Fprintf(h, " %d", e)
				}
				fmt.Fprintln(h)
			}
			if g.NumNodes() != c.nodes || g.NumEdges() != c.edges {
				t.Errorf("%d nodes, %d edges; pinned %d and %d", g.NumNodes(), g.NumEdges(), c.nodes, c.edges)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != c.digest {
				t.Errorf("graph sha256 %s, pinned %s", got, c.digest)
			}
		})
	}
}

// TestOneSinkPerTile checks the graph shape the router's dead-end prune
// rests on, over the architectures of TestGraphDigests: every CLB and IO
// tile has exactly one sink, every input pin's one out-edge goes to its
// own tile's sink, and sinks have no out-edges. The router skips an input
// pin off the target's tile and every sink but the target, so a builder
// that gave a block several sink classes must fail here first.
func TestOneSinkPerTile(t *testing.T) {
	for _, c := range graphDigests {
		t.Run(c.name, func(t *testing.T) {
			g := digestGraph(t, c.edit)
			sinks := make(map[[2]int32]int)
			for id, typ := range g.Type {
				x, y := g.X[id], g.Y[id]
				switch typ {
				case IPin:
					out := g.Edges(id)
					if want := g.SinkAt(int(x), int(y)); len(out) != 1 || int(out[0]) != want {
						t.Errorf("ipin %d at (%d,%d): out-edges %v, want only sink %d", id, x, y, out, want)
					}
				case Sink:
					sinks[[2]int32{x, y}]++
					if n := len(g.Edges(id)); n != 0 {
						t.Errorf("sink %d at (%d,%d) has %d out-edges", id, x, y, n)
					}
				}
			}
			for x := 0; x < g.GridWidth(); x++ {
				for y := 0; y < g.GridHeight(); y++ {
					want := 0
					if k := g.Kind(x, y); k == SiteCLB || k == SiteIO {
						want = 1
					}
					if n := sinks[[2]int32{int32(x), int32(y)}]; n != want {
						t.Errorf("tile (%d,%d) of site kind %d has %d sinks, want %d", x, y, g.Kind(x, y), n, want)
					}
				}
			}
		})
	}
}
