package bitstream

import (
	"slices"
	"testing"

	"fpgaflow/internal/arch"
	"fpgaflow/internal/netlist"
	"fpgaflow/internal/pack"
	"fpgaflow/internal/place"
	"fpgaflow/internal/route"
	"fpgaflow/internal/rrgraph"
	"fpgaflow/internal/sim"
)

const combBLIF = `
.model comb
.inputs a b c d
.outputs o1 o2
.names a b x1
11 1
.names c d x2
10 1
01 1
.names x1 x2 o1
1- 1
-1 1
.names x1 c o2
11 1
.end
`

const seqBLIF = `
.model seq
.inputs a b
.outputs o q
.names a b x
11 1
.names x q dq
10 1
01 1
.names q x o
1- 1
-1 1
.latch dq q re clk 1
.end
`

func generate(t *testing.T, blif string, params pack.Params) (*netlist.Netlist, *Bitstream) {
	t.Helper()
	nl, pk, p, pl, r := routeDesign(t, blif, params)
	bs, err := Generate(pk, p, pl, r)
	if err != nil {
		t.Fatal(err)
	}
	return nl, bs
}

// routeDesign packs, places and routes a BLIF design on the paper
// platform at W=10, sized to fit.
func routeDesign(t *testing.T, blif string, params pack.Params) (*netlist.Netlist, *pack.Packing, *place.Problem, *place.Placement, *route.Result) {
	t.Helper()
	nl, err := netlist.ParseBLIF(blif)
	if err != nil {
		t.Fatal(err)
	}
	pk, err := pack.Pack(nl, params)
	if err != nil {
		t.Fatal(err)
	}
	a := arch.Paper()
	a.CLB.N, a.CLB.K, a.CLB.I = params.N, params.K, params.I
	a.Routing.ChannelWidth = 10
	p, err := place.NewProblem(a, pk)
	if err != nil {
		t.Fatal(err)
	}
	p.AutoSize()
	pl, err := place.Place(p, place.Options{Seed: 5, InnerNum: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, err := rrgraph.Build(a)
	if err != nil {
		t.Fatal(err)
	}
	r, err := route.Route(p, pl, g, route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Success {
		t.Fatal("routing failed")
	}
	return nl, pk, p, pl, r
}

func TestGenerateAndExtractCombinational(t *testing.T) {
	nl, bs := generate(t, combBLIF, pack.Params{N: 2, K: 4, I: 8})
	ex, err := Extract(bs)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.CheckEquivalent(nl, ex, 10, 0, 1); err != nil {
		t.Fatalf("extracted netlist differs: %v", err)
	}
}

func TestGenerateAndExtractSequential(t *testing.T) {
	nl, bs := generate(t, seqBLIF, pack.Params{N: 2, K: 4, I: 8})
	ex, err := Extract(bs)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.CheckEquivalent(nl, ex, 10, 300, 2); err != nil {
		t.Fatalf("extracted netlist differs: %v", err)
	}
}

func TestGenerateAndExtractMinimalClusters(t *testing.T) {
	nl, bs := generate(t, combBLIF, pack.Params{N: 1, K: 4, I: 4})
	ex, err := Extract(bs)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.CheckEquivalent(nl, ex, 10, 0, 3); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	nl, bs := generate(t, seqBLIF, pack.Params{N: 2, K: 4, I: 8})
	data, err := Encode(bs)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 16 {
		t.Fatalf("bitstream only %d bytes", len(data))
	}
	bs2, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if bs2.ModelName != bs.ModelName {
		t.Errorf("model %q != %q", bs2.ModelName, bs.ModelName)
	}
	if !slices.Equal(bs2.Routing, bs.Routing) {
		t.Fatal("routing frame changed across Encode/Decode")
	}
	ex, err := Extract(bs2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.CheckEquivalent(nl, ex, 10, 300, 4); err != nil {
		t.Fatalf("decoded bitstream differs: %v", err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte("not a bitstream")); err == nil {
		t.Fatal("garbage accepted")
	}
	_, bs := generate(t, combBLIF, pack.Params{N: 2, K: 4, I: 8})
	data, err := Encode(bs)
	if err != nil {
		t.Fatal(err)
	}
	// Truncation must be caught.
	if _, err := Decode(data[:len(data)/2]); err == nil {
		t.Fatal("truncated bitstream accepted")
	}
	// Version tampering must be caught.
	bad := append([]byte(nil), data...)
	bad[4] = 99
	if _, err := Decode(bad); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestBitFlipChangesExtraction(t *testing.T) {
	// Flipping a LUT bit in the encoded stream must change the function or
	// be detected; it must never be silently equal AND structurally lost.
	nl, bs := generate(t, combBLIF, pack.Params{N: 2, K: 4, I: 8})
	// Find a used cluster and flip a meaningful LUT bit directly.
	flipped := false
	for x := 1; x <= bs.Arch.Cols && !flipped; x++ {
		for y := 1; y <= bs.Arch.Rows && !flipped; y++ {
			cfg, _ := bs.CLBAt(x, y)
			for i := range cfg.BLEs {
				any := false
				for _, b := range cfg.BLEs[i].LUT {
					if b {
						any = true
					}
				}
				if any {
					cfg.BLEs[i].LUT[0] = !cfg.BLEs[i].LUT[0]
					flipped = true
					break
				}
			}
		}
	}
	if !flipped {
		t.Fatal("no used LUT found")
	}
	ex, err := Extract(bs)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.CheckEquivalent(nl, ex, 10, 0, 5); err == nil {
		t.Fatal("flipped LUT bit produced an equivalent design")
	}
}

func TestExtractDetectsContention(t *testing.T) {
	_, bs := generate(t, combBLIF, pack.Params{N: 2, K: 4, I: 8})
	g := bs.Graph
	// Enable a second OPin driving a wire already driven by another net.
	wire := -1
	enabledEdges(g, bs.Routing, func(from, to int) {
		if g.Type[from] == rrgraph.OPin {
			wire = to
		}
	})
	if wire < 0 {
		t.Skip("no opin connections")
	}
	for id, typ := range g.Type {
		if typ != rrgraph.OPin {
			continue
		}
		ord, ok := g.ConfigEdge(id, wire)
		if !ok || bs.Routing[ord/64]&(1<<uint(ord%64)) != 0 {
			continue
		}
		bs.Routing[ord/64] |= 1 << uint(ord%64)
		if _, err := Extract(bs); err == nil {
			t.Fatal("net contention not detected")
		}
		return
	}
	t.Skip("no second opin reaches the wire")
}

func TestNumConfigBits(t *testing.T) {
	a := arch.Paper()
	a.Rows, a.Cols = 4, 4
	a.Routing.ChannelWidth = 8
	n, err := NumConfigBits(a)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatalf("config bits = %d", n)
	}
	// More tracks means more configuration.
	b := arch.Paper()
	b.Rows, b.Cols = 4, 4
	b.Routing.ChannelWidth = 16
	n2, err := NumConfigBits(b)
	if err != nil {
		t.Fatal(err)
	}
	if n2 <= n {
		t.Errorf("W=16 bits %d <= W=8 bits %d", n2, n)
	}
}

func TestGenerateRejectsFailedRouting(t *testing.T) {
	nl, err := netlist.ParseBLIF(combBLIF)
	if err != nil {
		t.Fatal(err)
	}
	pk, err := pack.Pack(nl, pack.Params{N: 2, K: 4, I: 8})
	if err != nil {
		t.Fatal(err)
	}
	a := arch.Paper()
	a.CLB.N, a.CLB.I = 2, 8
	p, _ := place.NewProblem(a, pk)
	p.AutoSize()
	pl, _ := place.Place(p, place.Options{Seed: 1, FixedSeedOnly: true})
	g, _ := rrgraph.Build(p.Arch)
	r := &route.Result{Graph: g, Routes: make([]*route.NetRoute, len(p.Nets)), Success: false}
	if _, err := Generate(pk, p, pl, r); err == nil {
		t.Fatal("failed routing accepted")
	}
}

// TestGenerateRejectsUnconfigurableHop routes a design, then makes one
// path hop from a wire onto an input pin the wire does not reach:
// Generate must fail instead of dropping the hop from the routing frame.
func TestGenerateRejectsUnconfigurableHop(t *testing.T) {
	_, pk, p, pl, r := routeDesign(t, combBLIF, pack.Params{N: 2, K: 4, I: 8})
	g := r.Graph
	for _, nr := range r.Routes {
		for _, path := range nr.Paths {
			for i := 0; i+1 < len(path); i++ {
				if !isWire(g, path[i]) {
					continue
				}
				for ip, typ := range g.Type {
					if _, ok := g.EdgeIndex(path[i], ip); typ == rrgraph.IPin && !ok {
						path[i+1] = ip
						if _, err := Generate(pk, p, pl, r); err == nil {
							t.Fatalf("hop %d->%d accepted", path[i], ip)
						}
						return
					}
				}
			}
		}
	}
	t.Fatal("no routed wire found")
}
