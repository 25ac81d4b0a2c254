package check

import (
	"strings"
	"testing"

	"fpgaflow/internal/arch"
	"fpgaflow/internal/bitstream"
	"fpgaflow/internal/fault"
	"fpgaflow/internal/netlist"
	"fpgaflow/internal/obs"
	"fpgaflow/internal/pack"
	"fpgaflow/internal/place"
	"fpgaflow/internal/route"
	"fpgaflow/internal/rrgraph"
)

const smallBLIF = `
.model small
.inputs a b c d
.outputs y z
.names a b t
11 1
.names t c y
1- 1
-1 1
.names c d z
10 1
.end
`

// buildDesign pushes the small BLIF through pack, place and route so tests
// can corrupt individual artifacts.
func buildDesign(t *testing.T) (*pack.Packing, *place.Problem, *place.Placement, *route.Result, *arch.Arch) {
	t.Helper()
	nl, err := netlist.ParseBLIF(smallBLIF)
	if err != nil {
		t.Fatal(err)
	}
	a := arch.Paper()
	pk, err := pack.Pack(nl, pack.Params{N: a.CLB.N, K: a.CLB.K, I: a.CLB.I})
	if err != nil {
		t.Fatal(err)
	}
	p, err := place.NewProblem(a, pk)
	if err != nil {
		t.Fatal(err)
	}
	p.AutoSize()
	pl, err := place.Place(p, place.Options{Seed: 1, InnerNum: 1})
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
		t.Fatal("small design unroutable")
	}
	return pk, p, pl, r, a
}

func wantRule(t *testing.T, rep *Report, rule string) Diagnostic {
	t.Helper()
	for _, d := range rep.Diags {
		if d.Rule == rule {
			return d
		}
	}
	t.Fatalf("rule %s did not fire; got:\n%s", rule, rep.Format())
	return Diagnostic{}
}

func wantClean(t *testing.T, rep *Report) {
	t.Helper()
	if rep.Count(Error) > 0 {
		t.Fatalf("unexpected error diagnostics:\n%s", rep.Format())
	}
}

func TestRegistryShape(t *testing.T) {
	rules := Rules()
	if len(rules) < 12 {
		t.Fatalf("only %d rules registered, want >= 12", len(rules))
	}
	stages := map[Stage]int{}
	ids := map[string]bool{}
	for _, r := range rules {
		if ids[r.ID] {
			t.Errorf("duplicate rule ID %s", r.ID)
		}
		ids[r.ID] = true
		stages[r.Stage]++
		if r.Doc == "" || r.Applies == nil || r.Run == nil {
			t.Errorf("rule %s incompletely declared", r.ID)
		}
	}
	if len(stages) < 4 {
		t.Fatalf("rules span only %d stages (%v), want >= 4", len(stages), stages)
	}
	if RuleByID("route/connectivity") == nil {
		t.Error("RuleByID lookup failed")
	}
}

func TestMultiDrivenNet(t *testing.T) {
	blif := `
.model dup
.inputs a b
.outputs y
.names a y
1 1
.names b y
1 1
.end
`
	rep := RunStage(StageNetlist, &Artifacts{BLIF: blif})
	d := wantRule(t, rep, "net/multi-driven")
	if d.Object != "y" {
		t.Errorf("multi-driven object = %q, want y", d.Object)
	}
	if err := rep.Err(); err == nil || !strings.Contains(err.Error(), "net/multi-driven") {
		t.Errorf("Err() = %v, want to name net/multi-driven", err)
	}
	// An input redeclared as a .names output is also a double driver.
	rep = RunStage(StageNetlist, &Artifacts{BLIF: ".model m\n.inputs x\n.outputs x\n.names x\n1\n.end\n"})
	wantRule(t, rep, "net/multi-driven")
	// The clean BLIF stays clean.
	wantClean(t, RunStage(StageNetlist, &Artifacts{BLIF: smallBLIF}))
}

func TestUndrivenAndArity(t *testing.T) {
	nl, err := netlist.ParseBLIF(smallBLIF)
	if err != nil {
		t.Fatal(err)
	}
	wantClean(t, RunStage(StageNetlist, &Artifacts{Netlist: nl}))

	// Declare an output nobody drives.
	nl.MarkOutput("ghost")
	rep := RunStage(StageNetlist, &Artifacts{Netlist: nl})
	if d := wantRule(t, rep, "net/undriven"); d.Object != "ghost" {
		t.Errorf("undriven object = %q", d.Object)
	}

	// A 5-input node violates K=4 but is fine with arity checking off.
	nl2, _ := netlist.ParseBLIF(".model w\n.inputs a b c d e\n.outputs y\n.names a b c d e y\n11111 1\n.end\n")
	wantClean(t, RunStage(StageNetlist, &Artifacts{Netlist: nl2}))
	rep = RunStage(StageNetlist, &Artifacts{Netlist: nl2, K: 4})
	wantRule(t, rep, "net/lut-arity")
}

func TestCombLoopRule(t *testing.T) {
	nl, err := netlist.ParseBLIF(smallBLIF)
	if err != nil {
		t.Fatal(err)
	}
	// Rewire t and y into a cycle: t reads y, y reads t.
	tn, yn := nl.Node("t"), nl.Node("y")
	tn.Fanin = []*netlist.Node{yn}
	tn.Cover = netlist.Cover{Cubes: []netlist.Cube{netlist.Cube("1")}, Value: netlist.LitOne}
	rep := RunStage(StageNetlist, &Artifacts{Netlist: nl})
	d := wantRule(t, rep, "net/comb-loop")
	if !strings.Contains(d.Message, "t") || !strings.Contains(d.Message, "y") {
		t.Errorf("loop message %q should name both members", d.Message)
	}
	// A latch in the cycle breaks it.
	nl2, _ := netlist.ParseBLIF(".model seq\n.inputs a\n.outputs q\n.names a q d\n11 1\n.latch d q 0\n.end\n")
	wantClean(t, RunStage(StageNetlist, &Artifacts{Netlist: nl2}))
}

func TestOverlappingPlacement(t *testing.T) {
	_, p, pl, _, _ := buildDesign(t)
	wantClean(t, RunStage(StagePlace, &Artifacts{Problem: p, Placement: pl}))

	// Inject an overlap: move block 1 onto block 0's site.
	saved := pl.Loc[1]
	pl.Loc[1] = pl.Loc[0]
	rep := RunStage(StagePlace, &Artifacts{Problem: p, Placement: pl})
	wantRule(t, rep, "place/overlap")
	pl.Loc[1] = saved

	// A CLB pushed off the grid.
	var clb int = -1
	for _, b := range p.Blocks {
		if b.Kind == place.BlockCLB {
			clb = b.ID
			break
		}
	}
	if clb >= 0 {
		saved := pl.Loc[clb]
		pl.Loc[clb] = place.Location{X: 0, Y: 0}
		rep = RunStage(StagePlace, &Artifacts{Problem: p, Placement: pl})
		wantRule(t, rep, "place/out-of-grid")
		pl.Loc[clb] = saved
	}

	// A pad dragged into the logic array.
	var padID = -1
	for _, b := range p.Blocks {
		if b.Kind != place.BlockCLB {
			padID = b.ID
			break
		}
	}
	if padID >= 0 {
		saved := pl.Loc[padID]
		pl.Loc[padID] = place.Location{X: 1, Y: 1}
		rep = RunStage(StagePlace, &Artifacts{Problem: p, Placement: pl})
		wantRule(t, rep, "place/io-perimeter")
		pl.Loc[padID] = saved
	}
}

func TestDisconnectedRoute(t *testing.T) {
	_, p, pl, r, _ := buildDesign(t)
	arts := &Artifacts{Graph: r.Graph, Routing: r, Problem: p, Placement: pl}
	wantClean(t, RunStage(StageRoute, arts))

	// Find a net whose first path has at least 3 nodes and cut out the
	// middle: the remaining hop has no RR edge, so the tree is broken.
	for _, nr := range r.Routes {
		if len(nr.Paths) == 0 || len(nr.Paths[0]) < 3 {
			continue
		}
		path := nr.Paths[0]
		saved := append([]int(nil), path...)
		nr.Paths[0] = append(append([]int(nil), path[0]), path[2:]...)
		rep := RunStage(StageRoute, arts)
		d := wantRule(t, rep, "route/connectivity")
		if !strings.Contains(d.Message, "missing RR edge") && !strings.Contains(d.Message, "detached") {
			t.Errorf("unexpected connectivity message %q", d.Message)
		}
		nr.Paths[0] = saved
		return
	}
	t.Fatal("no route long enough to corrupt")
}

func TestRouteOveruse(t *testing.T) {
	_, p, pl, r, _ := buildDesign(t)
	// Squeeze a used wire's capacity to zero: whatever single net legally
	// occupies it is now an overuse.
	for _, nr := range r.Routes {
		for _, id := range nr.NodeList() {
			if r.Graph.Type[id].IsWire() {
				saved := r.Graph.Capacity[id]
				r.Graph.Capacity[id] = 0
				rep := RunStage(StageRoute, &Artifacts{Routing: r, Problem: p, Placement: pl})
				wantRule(t, rep, "route/overuse")
				r.Graph.Capacity[id] = saved
				return
			}
		}
	}
	t.Fatal("no routed wire found")
}

// TestBitstreamCrossChecks runs every rule over one complete, consistent
// design, from the netlist to the encoded bitstream: none may fire. The
// corruptions each bits/* rule must catch are rows of
// TestEveryRuleHasFiringFixture.
func TestBitstreamCrossChecks(t *testing.T) {
	wantClean(t, RunAll(bitsArts(t)))
}

// TestStuckBitRuleOnMisSizedPlacement runs the bitstream stage over a
// placement with no locations and a stuck bit: bitstream/stuck-bit used
// to index the placement by block ID and panic.
func TestStuckBitRuleOnMisSizedPlacement(t *testing.T) {
	pk, p, pl, r, a := buildDesign(t)
	bs, err := bitstream.Generate(pk, p, pl, r)
	if err != nil {
		t.Fatal(err)
	}
	pl.Loc = pl.Loc[:0]
	dm := &fault.DefectMap{StuckBits: []fault.StuckBit{{X: 1, Y: 1, BLE: 0, Bit: 0, Value: true}}}
	RunStage(StageBitstream, &Artifacts{Arch: a, Problem: p, Placement: pl, Bitstream: bs, Defects: dm})
}

// TestMisSizedPlacementFailsDownstreamStages runs the route and bitstream
// stages on their own over a design whose placement is one location
// short. place/shape runs only at the place stage, so the rules there
// that read the placement must report it: the route stage used to index
// past the end of the placement, and the bitstream stage ran bits/decode
// alone and passed.
func TestMisSizedPlacementFailsDownstreamStages(t *testing.T) {
	for _, stage := range []Stage{StageRoute, StageBitstream} {
		a := bitsArts(t)
		a.Defects = &fault.DefectMap{StuckBits: []fault.StuckBit{{X: 1, Y: 1}}}
		a.Placement.Loc = a.Placement.Loc[:len(a.Placement.Loc)-1]
		err := RunStage(stage, a).Err()
		if err == nil || !strings.Contains(err.Error(), "placement has") {
			t.Errorf("%s stage on a mis-sized placement: err = %v, want one naming the placement", stage, err)
		}
	}
}

// TestBitstreamDecodeFailurePerRule checks that the shared decode still
// lets every applicable bits/* rule report its own failure, and that a
// second pass over the same Artifacts decodes the bytes it holds now.
func TestBitstreamDecodeFailurePerRule(t *testing.T) {
	pk, p, pl, r, a := buildDesign(t)
	bs, err := bitstream.Generate(pk, p, pl, r)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := bitstream.Encode(bs)
	if err != nil {
		t.Fatal(err)
	}
	arts := &Artifacts{Encoded: enc, Arch: a, Packing: pk,
		Problem: p, Placement: pl, Graph: r.Graph, Routing: r}
	wantClean(t, RunStage(StageBitstream, arts))

	arts.Encoded = enc[:8]
	rep := RunStage(StageBitstream, arts)
	perRule := map[string]int{}
	for _, d := range rep.Diags {
		if !strings.Contains(d.Message, "decode failed") {
			t.Errorf("unexpected diagnostic on a corrupt bitstream: %v", d)
		}
		perRule[d.Rule]++
	}
	rules := []string{"bits/decode", "bits/lut-mask", "bits/switch-route", "bits/pads"}
	if rep.RulesRun != len(rules) {
		t.Errorf("%d bitstream rules ran, want %d", rep.RulesRun, len(rules))
	}
	for _, id := range rules {
		if perRule[id] != 1 {
			t.Errorf("%s reported %d decode failures, want 1:\n%s", id, perRule[id], rep.Format())
		}
	}
}

func TestDisableAndRecord(t *testing.T) {
	blif := ".model dup\n.inputs a\n.outputs y\n.names a y\n1 1\n.names a y\n0 1\n.end\n"
	rep := RunStage(StageNetlist, &Artifacts{BLIF: blif, Disable: []string{"net/multi-driven"}})
	if len(rep.Diags) != 0 {
		t.Fatalf("disabled rule still fired:\n%s", rep.Format())
	}

	tr := obs.New("check-test")
	rep = RunStage(StageNetlist, &Artifacts{BLIF: blif})
	rep.Record(tr)
	if tr.Counters()["check.errors"] == 0 {
		t.Error("check.errors counter not recorded")
	}
	if tr.Counters()["check.netlist.diags"] == 0 {
		t.Error("per-stage diag counter not recorded")
	}
	if !strings.Contains(rep.Format(), "net/multi-driven") {
		t.Error("Format() should include the rule ID")
	}
}
