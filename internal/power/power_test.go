package power

import (
	"testing"

	"fpgaflow/internal/arch"
	"fpgaflow/internal/circuit"
	"fpgaflow/internal/netlist"
	"fpgaflow/internal/pack"
	"fpgaflow/internal/place"
	"fpgaflow/internal/route"
	"fpgaflow/internal/rrgraph"
	"fpgaflow/internal/sim"
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
	nl  *netlist.Netlist
	pk  *pack.Packing
	p   *place.Problem
	pl  *place.Placement
	r   *route.Result
	act *sim.Activity
}

func build(t *testing.T, gated, detff bool) *flow {
	t.Helper()
	nl, err := netlist.ParseBLIF(seqBLIF)
	if err != nil {
		t.Fatal(err)
	}
	pk, err := pack.Pack(nl, pack.Params{N: 2, K: 4, I: 10})
	if err != nil {
		t.Fatal(err)
	}
	a := arch.Paper()
	a.CLB.N, a.CLB.I = 2, 10
	a.CLB.GatedClock = gated
	a.CLB.DoubleEdgeFF = detff
	a.Routing.ChannelWidth = 10
	p, err := place.NewProblem(a, pk)
	if err != nil {
		t.Fatal(err)
	}
	p.AutoSize()
	pl, err := place.Place(p, place.Options{Seed: 3, InnerNum: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, err := rrgraph.Build(a)
	if err != nil {
		t.Fatal(err)
	}
	r, err := route.Route(p, pl, g, route.Options{})
	if err != nil || !r.Success {
		t.Fatalf("route: %v", err)
	}
	act, err := sim.EstimateActivity(nl, 1000, 0.5, 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &flow{nl, pk, p, pl, r, act}
}

func TestEstimateBreakdown(t *testing.T) {
	f := build(t, true, true)
	rep, err := Estimate(f.pk, f.p, f.pl, f.r, f.act, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total <= 0 {
		t.Fatal("zero power")
	}
	for name, v := range map[string]float64{
		"routing": rep.DynamicRouting, "logic": rep.DynamicLogic,
		"clock": rep.DynamicClock, "sc": rep.ShortCircuit, "leak": rep.Leakage,
	} {
		if v < 0 {
			t.Errorf("%s power negative: %v", name, v)
		}
	}
	sum := rep.DynamicRouting + rep.DynamicLogic + rep.DynamicClock + rep.ShortCircuit + rep.Leakage
	if diff := rep.Total - sum; diff > 1e-18 || diff < -1e-18 {
		t.Errorf("total %v != sum %v", rep.Total, sum)
	}
	// Plausibility at 0.18um, 100 MHz, tiny design: between 1 uW and 1 W.
	if rep.Total < 1e-6 || rep.Total > 1 {
		t.Errorf("total power implausible: %v W", rep.Total)
	}
}

func TestPowerScalesWithClock(t *testing.T) {
	f := build(t, true, true)
	r1, err := Estimate(f.pk, f.p, f.pl, f.r, f.act, 50e6)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Estimate(f.pk, f.p, f.pl, f.r, f.act, 200e6)
	if err != nil {
		t.Fatal(err)
	}
	if r2.DynamicRouting <= r1.DynamicRouting || r2.DynamicClock <= r1.DynamicClock {
		t.Error("dynamic power did not grow with clock")
	}
	if r2.Leakage != r1.Leakage {
		t.Error("leakage should not depend on clock")
	}
}

func TestGatedClockSavesPower(t *testing.T) {
	gated := build(t, true, true)
	plain := build(t, false, true)
	rg, err := Estimate(gated.pk, gated.p, gated.pl, gated.r, gated.act, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := Estimate(plain.pk, plain.p, plain.pl, plain.r, plain.act, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	if rg.GatedClockSaving <= 0 {
		t.Errorf("gated clock saving %v", rg.GatedClockSaving)
	}
	if rp.GatedClockSaving != 0 {
		t.Errorf("ungated arch reports saving %v", rp.GatedClockSaving)
	}
	if rg.DynamicClock >= rp.DynamicClock {
		t.Errorf("gating did not reduce clock power: %v vs %v", rg.DynamicClock, rp.DynamicClock)
	}
}

func TestDETFFHalvesClockPower(t *testing.T) {
	detff := build(t, false, true)
	setff := build(t, false, false)
	rd, err := Estimate(detff.pk, detff.p, detff.pl, detff.r, detff.act, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Estimate(setff.pk, setff.p, setff.pl, setff.r, setff.act, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	if rd.DynamicClock >= rs.DynamicClock {
		t.Errorf("DETFF clock power %v >= SETFF %v", rd.DynamicClock, rs.DynamicClock)
	}
}

func TestEstimateRejectsBadClock(t *testing.T) {
	f := build(t, true, true)
	if _, err := Estimate(f.pk, f.p, f.pl, f.r, f.act, 0); err == nil {
		t.Fatal("zero clock accepted")
	}
}

func TestNilActivityUsesDefault(t *testing.T) {
	f := build(t, true, true)
	rep, err := Estimate(f.pk, f.p, f.pl, f.r, nil, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DynamicRouting <= 0 {
		t.Error("default activity gave zero routing power")
	}
}

func TestTopNets(t *testing.T) {
	f := build(t, true, true)
	rep, err := Estimate(f.pk, f.p, f.pl, f.r, f.act, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	top := rep.TopNets(3)
	if len(top) == 0 {
		t.Fatal("no nets")
	}
	for i := 1; i < len(top); i++ {
		if rep.PerNet[top[i]] > rep.PerNet[top[i-1]] {
			t.Error("TopNets not sorted")
		}
	}
}

func TestTransistorCounts(t *testing.T) {
	a := arch.Paper()
	n := CLBTransistors(a)
	// 5 BLEs with 16-bit LUTs, DETFFs, 17:1 muxes: order of thousands.
	if n < 500 || n > 20000 {
		t.Errorf("CLB transistors = %d", n)
	}
	rt := TileRoutingTransistors(a)
	if rt <= 0 {
		t.Errorf("tile routing transistors = %d", rt)
	}
	// Bigger K means a bigger CLB.
	b := arch.Paper()
	b.CLB.K = 6
	if CLBTransistors(b) <= n {
		t.Error("K=6 CLB not larger than K=4")
	}
	// Fabric scales with grid.
	small, big := arch.Paper(), arch.Paper()
	small.Rows, small.Cols = 2, 2
	big.Rows, big.Cols = 4, 4
	if FabricTransistors(big) != 4*FabricTransistors(small) {
		t.Error("fabric transistor count not proportional to tiles")
	}
}

func TestFabricAreaGrowsWithSwitchWidth(t *testing.T) {
	a := arch.Paper()
	b := arch.Paper()
	b.Routing.SwitchWidthMult = 64
	if FabricAreaMinWidthUnits(b) <= FabricAreaMinWidthUnits(a) {
		t.Error("64x switches should cost more area than 10x")
	}
}

func TestClockPowerConsistentWithCircuitSubstrate(t *testing.T) {
	// Cross-check the architectural clock-power model against the
	// transistor-level Table 3 measurement: the per-cycle clock energy the
	// power model assigns to one active 5-FF cluster must agree with the
	// circuit substrate's measured single-clock CLB energy within an order
	// of magnitude (they model the same structure at different abstraction
	// levels).
	tech := arch.STM018()
	rows, err := circuit.Table3(tech, 5)
	if err != nil {
		t.Fatal(err)
	}
	var allOn float64
	for _, r := range rows {
		if r.ActiveFFs == 5 {
			allOn = r.SingleClock
		}
	}
	if allOn <= 0 {
		t.Fatal("no all-on row")
	}
	// The power model's per-cluster clock capacitance (local wire + 5 FF
	// clock loads), per cycle.
	localClkC := tech.WireCap(0.5, 1, 2)
	ffClkC := 4 * tech.CGateMin
	modelE := tech.SwitchEnergy(localClkC + 5*ffClkC)
	ratio := allOn / modelE
	if ratio < 0.5 || ratio > 20 {
		t.Errorf("circuit CLB clock energy %.1f fJ vs model %.1f fJ (ratio %.1f outside [0.5,20])",
			allOn*1e15, modelE*1e15, ratio)
	}
}
