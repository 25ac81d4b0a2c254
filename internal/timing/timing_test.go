package timing

import (
	"testing"

	"fpgaflow/internal/arch"
	"fpgaflow/internal/netlist"
	"fpgaflow/internal/pack"
	"fpgaflow/internal/place"
	"fpgaflow/internal/route"
	"fpgaflow/internal/rrgraph"
)

const seqBLIF = `
.model seq
.inputs a b
.outputs o q
.names a b x
11 1
.names x b y
10 1
01 1
.names y q o
1- 1
-1 1
.names o a dq
11 1
.latch dq q re clk 0
.end
`

type flow struct {
	pk *pack.Packing
	p  *place.Problem
	pl *place.Placement
	r  *route.Result
}

func routeDesign(t *testing.T, blif string, params pack.Params, detff bool) *flow {
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
	a.CLB.DoubleEdgeFF = detff
	a.Routing.ChannelWidth = 10
	p, err := place.NewProblem(a, pk)
	if err != nil {
		t.Fatal(err)
	}
	p.AutoSize()
	pl, err := place.Place(p, place.Options{Seed: 2, InnerNum: 1})
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
	return &flow{pk, p, pl, r}
}

func TestAnalyzeBasics(t *testing.T) {
	f := routeDesign(t, seqBLIF, pack.Params{N: 2, K: 4, I: 10}, true)
	an, err := Analyze(f.pk, f.p, f.pl, f.r)
	if err != nil {
		t.Fatal(err)
	}
	if an.CriticalPath <= 0 || an.MinPeriod != an.CriticalPath {
		t.Fatalf("critical path %v", an.CriticalPath)
	}
	// Sanity: with pads, muxes and LUTs on the path, the period must exceed
	// the raw LUT delay and stay below a microsecond for this toy design.
	tech := f.p.Arch.Tech
	if an.CriticalPath < tech.LUTDelay {
		t.Errorf("critical path %v below one LUT delay", an.CriticalPath)
	}
	if an.CriticalPath > 1e-6 {
		t.Errorf("critical path %v implausibly long", an.CriticalPath)
	}
	if an.CriticalSignal == "" {
		t.Error("no critical signal reported")
	}
}

func TestDETFFDoublesDataRate(t *testing.T) {
	f := routeDesign(t, seqBLIF, pack.Params{N: 2, K: 4, I: 10}, true)
	an, err := Analyze(f.pk, f.p, f.pl, f.r)
	if err != nil {
		t.Fatal(err)
	}
	if an.MaxDataRateHz != 2*an.MaxClockHz {
		t.Errorf("DETFF data rate %v != 2x clock %v", an.MaxDataRateHz, an.MaxClockHz)
	}
	f2 := routeDesign(t, seqBLIF, pack.Params{N: 2, K: 4, I: 10}, false)
	an2, err := Analyze(f2.pk, f2.p, f2.pl, f2.r)
	if err != nil {
		t.Fatal(err)
	}
	if an2.MaxDataRateHz != an2.MaxClockHz {
		t.Errorf("SETFF data rate %v != clock %v", an2.MaxDataRateHz, an2.MaxClockHz)
	}
}

func TestConnectionDelaysPositive(t *testing.T) {
	f := routeDesign(t, seqBLIF, pack.Params{N: 1, K: 4, I: 4}, true)
	ds := ConnectionDelays(f.r)
	count := 0
	for ni, nd := range ds {
		for si, d := range nd {
			if d <= 0 {
				t.Errorf("net %d sink %d delay %v", ni, si, d)
			}
			count++
		}
	}
	if count == 0 {
		t.Fatal("no connections analyzed")
	}
}

func TestLongerWirePathHasMoreDelay(t *testing.T) {
	// Direct model check: two synthetic paths through the same graph, one a
	// prefix of the other, must have increasing Elmore delay.
	a := arch.Paper()
	a.Rows, a.Cols = 4, 4
	a.Routing.ChannelWidth = 4
	g, err := rrgraph.Build(a)
	if err != nil {
		t.Fatal(err)
	}
	// Find a chain of three wires connected via switch boxes.
	var w0, w1, w2 int = -1, -1, -1
	for id, typ := range g.Type {
		if typ != rrgraph.ChanX {
			continue
		}
		for _, e := range g.Edges(id) {
			if !g.Type[e].IsWire() {
				continue
			}
			for _, e2 := range g.Edges(int(e)) {
				if int(e2) == id || !g.Type[e2].IsWire() {
					continue
				}
				w0, w1, w2 = id, int(e), int(e2)
				break
			}
			if w0 >= 0 {
				break
			}
		}
		if w0 >= 0 {
			break
		}
	}
	if w0 < 0 {
		t.Fatal("no wire chain found")
	}
	short := &route.Result{Graph: g, Routes: []*route.NetRoute{{Paths: [][]int{{w0, w1}}}}}
	long := &route.Result{Graph: g, Routes: []*route.NetRoute{{Paths: [][]int{{w0, w1, w2}}}}}
	ds, dl := ConnectionDelays(short)[0][0], ConnectionDelays(long)[0][0]
	if dl <= ds {
		t.Errorf("3-wire delay %v <= 2-wire delay %v", dl, ds)
	}
}

func TestAnalyzeCombinationalOnly(t *testing.T) {
	f := routeDesign(t, `
.model c
.inputs a b
.outputs o
.names a b o
11 1
.end`, pack.Params{N: 1, K: 4, I: 4}, true)
	an, err := Analyze(f.pk, f.p, f.pl, f.r)
	if err != nil {
		t.Fatal(err)
	}
	tech := f.p.Arch.Tech
	min := tech.InPadDelay + tech.LocalMuxDelay + tech.LUTDelay + tech.OutPadDelay
	if an.CriticalPath < min {
		t.Errorf("pad-to-pad path %v below floor %v", an.CriticalPath, min)
	}
}

func TestCriticalPathTrace(t *testing.T) {
	f := routeDesign(t, seqBLIF, pack.Params{N: 2, K: 4, I: 10}, true)
	an, err := Analyze(f.pk, f.p, f.pl, f.r)
	if err != nil {
		t.Fatal(err)
	}
	if len(an.CriticalNodes) == 0 {
		t.Fatal("no critical path trace")
	}
	// The trace must be a real fanin chain with non-decreasing arrivals.
	prev := -1.0
	for _, name := range an.CriticalNodes {
		at, ok := an.ArrivalAt[name]
		if !ok {
			t.Fatalf("trace node %q has no arrival", name)
		}
		if at < prev {
			t.Fatalf("arrival decreases along trace at %q: %v < %v", name, at, prev)
		}
		prev = at
	}
	// Consecutive nodes must be connected in the netlist.
	for i := 1; i < len(an.CriticalNodes); i++ {
		n := f.pk.Netlist.Node(an.CriticalNodes[i])
		if n == nil {
			t.Fatalf("trace node %q missing", an.CriticalNodes[i])
		}
		found := false
		for _, fin := range n.Fanin {
			if fin.Name == an.CriticalNodes[i-1] {
				found = true
			}
		}
		if !found {
			t.Errorf("trace edge %q -> %q is not a netlist edge",
				an.CriticalNodes[i-1], an.CriticalNodes[i])
		}
	}
}
