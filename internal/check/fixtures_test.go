package check

import (
	"math/bits"
	"strings"
	"testing"

	"fpgaflow/internal/bitstream"
	"fpgaflow/internal/fault"
	"fpgaflow/internal/netlist"
	"fpgaflow/internal/pack"
	"fpgaflow/internal/place"
	"fpgaflow/internal/rrgraph"
)

// The rules are the flow's only legality check of every artifact, so each
// registered rule needs a fixture that makes it fire.
// TestEveryRuleHasFiringFixture walks Rules() and fails on a rule without
// one.

// fixture is one firing test for one rule: clean builds an artifact set on
// which the rule stays quiet, corrupt breaks it so that the rule must fire.
type fixture struct {
	rule, name string
	clean      func(t *testing.T) *Artifacts
	corrupt    func(t *testing.T, a *Artifacts)
}

// seqBLIF packs into one cluster holding two registered BLEs on the
// implicit clock.
const seqBLIF = `
.model seq
.inputs a b
.outputs q1 q2
.names a b d1
11 1
.names a b d2
10 1
.latch d1 q1 re clk 0
.latch d2 q2 re clk 0
.end
`

func blifArts(*testing.T) *Artifacts { return &Artifacts{BLIF: smallBLIF} }

func netArts(t *testing.T) *Artifacts {
	nl, err := netlist.ParseBLIF(smallBLIF)
	if err != nil {
		t.Fatal(err)
	}
	return &Artifacts{Netlist: nl, K: 4}
}

func packArts(t *testing.T) *Artifacts {
	pk, _, _, _, _ := buildDesign(t)
	return &Artifacts{Packing: pk}
}

func seqPackArts(t *testing.T) *Artifacts {
	nl, err := netlist.ParseBLIF(seqBLIF)
	if err != nil {
		t.Fatal(err)
	}
	pk, err := pack.Pack(nl, pack.PaperParams())
	if err != nil {
		t.Fatal(err)
	}
	return &Artifacts{Packing: pk}
}

func placeArts(t *testing.T) *Artifacts {
	_, p, pl, _, _ := buildDesign(t)
	return &Artifacts{Problem: p, Placement: pl}
}

func graphArts(t *testing.T) *Artifacts { return &Artifacts{Graph: rrAuditGraph(t)} }

func routeArts(t *testing.T) *Artifacts {
	_, p, pl, r, _ := buildDesign(t)
	return &Artifacts{Graph: r.Graph, Routing: r, Problem: p, Placement: pl}
}

func bitsArts(t *testing.T) *Artifacts {
	pk, p, pl, r, a := buildDesign(t)
	bs, err := bitstream.Generate(pk, p, pl, r)
	if err != nil {
		t.Fatal(err)
	}
	return &Artifacts{Encoded: encode(t, bs), Arch: a, Packing: pk, Problem: p, Placement: pl,
		Graph: r.Graph, Routing: r, Bitstream: bs}
}

func encode(t *testing.T, bs *bitstream.Bitstream) []byte {
	t.Helper()
	enc, err := bitstream.Encode(bs)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// firstBlock returns the first placed block that is (clb) or is not a CLB.
func firstBlock(t *testing.T, p *place.Problem, clb bool) *place.Block {
	t.Helper()
	for _, b := range p.Blocks {
		if (b.Kind == place.BlockCLB) == clb {
			return b
		}
	}
	t.Fatal("no such block placed")
	return nil
}

// usedWire returns the node ID of the first channel wire on a route.
func usedWire(t *testing.T, a *Artifacts) int {
	t.Helper()
	for _, nr := range a.Routing.Routes {
		for _, id := range nr.NodeList() {
			if a.Routing.Graph.Type[id].IsWire() {
				return id
			}
		}
	}
	t.Fatal("routing uses no wire")
	return -1
}

// recode re-encodes a mutated clone of the design's bitstream.
func recode(t *testing.T, a *Artifacts, mutate func(bs *bitstream.Bitstream)) {
	mut := a.Bitstream.Clone()
	mutate(mut)
	a.Encoded = encode(t, mut)
}

// dropEdge disables the first enabled configurable edge whose endpoints
// satisfy kind, and reports whether there was one.
func dropEdge(bs *bitstream.Bitstream, kind func(from, to rrgraph.Node) bool) bool {
	g := bs.Graph
	for i, w := range bs.Routing {
		for ; w != 0; w &= w - 1 {
			bit := bits.TrailingZeros64(w)
			if from, to := g.ConfigEdgeAt(i*64 + bit); kind(g.Node(from), g.Node(to)) {
				bs.Routing[i] &^= 1 << uint(bit)
				return true
			}
		}
	}
	return false
}

func ruleFixtures() []fixture {
	padMove := func(l func(w, h int) place.Location) func(*testing.T, *Artifacts) {
		return func(t *testing.T, a *Artifacts) {
			b := firstBlock(t, a.Problem, false)
			a.Placement.Loc[b.ID] = l(a.Problem.Arch.Cols, a.Problem.Arch.Rows)
		}
	}
	return []fixture{
		{"net/multi-driven", "double-driver", blifArts, func(_ *testing.T, a *Artifacts) {
			a.BLIF = ".model dup\n.inputs a b\n.outputs y\n.names a y\n1 1\n.names b y\n1 1\n.end\n"
		}},
		{"net/undriven", "ghost-output", netArts, func(_ *testing.T, a *Artifacts) {
			a.Netlist.MarkOutput("ghost")
		}},
		{"net/comb-loop", "t-y-cycle", netArts, func(_ *testing.T, a *Artifacts) {
			tn := a.Netlist.Node("t")
			tn.Fanin = []*netlist.Node{a.Netlist.Node("y")}
			tn.Cover = netlist.Cover{Cubes: []netlist.Cube{netlist.Cube("1")}, Value: netlist.LitOne}
		}},
		{"net/cube-width", "short-cube", netArts, func(_ *testing.T, a *Artifacts) {
			a.Netlist.Node("t").Cover.Cubes = []netlist.Cube{netlist.Cube("1")}
		}},
		{"net/lut-arity", "k-below-fanin", netArts, func(_ *testing.T, a *Artifacts) { a.K = 1 }},
		{"net/dangling", "dead-gate", netArts, func(t *testing.T, a *Artifacts) {
			nl := a.Netlist
			and := netlist.Cover{Cubes: []netlist.Cube{netlist.Cube("11")}, Value: netlist.LitOne}
			if _, err := nl.AddLogic("dead", []*netlist.Node{nl.Node("a"), nl.Node("b")}, and); err != nil {
				t.Fatal(err)
			}
		}},
		{"net/unused-input", "spare-input", netArts, func(t *testing.T, a *Artifacts) {
			if _, err := a.Netlist.AddInput("spare"); err != nil {
				t.Fatal(err)
			}
		}},
		{"net/floating-lut-input", "dont-care-input", netArts, func(_ *testing.T, a *Artifacts) {
			a.Netlist.Node("t").Cover.Cubes = []netlist.Cube{netlist.Cube("1-")}
		}},

		{"pack/cluster-size", "n-below-fill", packArts, func(_ *testing.T, a *Artifacts) { a.Packing.Params.N = 1 }},
		{"pack/cluster-inputs", "i-below-inputs", packArts, func(_ *testing.T, a *Artifacts) { a.Packing.Params.I = 1 }},
		{"pack/cluster-inputs", "stale-list", packArts, func(_ *testing.T, a *Artifacts) {
			c := a.Packing.Clusters[0]
			c.Inputs = append([]string{"bogus"}, c.Inputs[1:]...)
		}},
		{"pack/cluster-inputs", "extra-input", packArts, func(_ *testing.T, a *Artifacts) {
			c := a.Packing.Clusters[0]
			c.Inputs = append([]string{"bogus"}, c.Inputs...)
		}},
		{"pack/coverage", "duplicate-ble", packArts, func(_ *testing.T, a *Artifacts) {
			pk := a.Packing
			pk.Clusters = append(pk.Clusters, &pack.Cluster{ID: 99, BLEs: pk.Clusters[0].BLEs[:1]})
		}},
		{"pack/coverage", "foreign-ble", packArts, func(_ *testing.T, a *Artifacts) {
			c := a.Packing.Clusters[0]
			c.BLEs = append(c.BLEs, &pack.BLE{LUT: c.BLEs[0].LUT})
		}},
		{"pack/coverage", "unclustered-ble", packArts, func(_ *testing.T, a *Artifacts) {
			c := a.Packing.Clusters[0]
			c.BLEs = c.BLEs[1:]
		}},
		{"pack/clock", "mixed-clocks", seqPackArts, func(_ *testing.T, a *Artifacts) {
			c := a.Packing.Clusters[0]
			c.BLEs[len(c.BLEs)-1].FF.Clock = "clk2"
		}},
		{"pack/clock", "stale-stored-clock", seqPackArts, func(_ *testing.T, a *Artifacts) {
			a.Packing.Clusters[0].Clock = ""
		}},

		{"place/shape", "missing-location", placeArts, dropLocation},
		{"place/shape", "extra-location", placeArts, func(_ *testing.T, a *Artifacts) {
			a.Placement.Loc = append(a.Placement.Loc, place.Location{})
		}},
		{"place/overlap", "shared-site", placeArts, func(_ *testing.T, a *Artifacts) {
			a.Placement.Loc[1] = a.Placement.Loc[0]
		}},
		{"place/out-of-grid", "clb-on-corner", placeArts, func(t *testing.T, a *Artifacts) {
			a.Placement.Loc[firstBlock(t, a.Problem, true).ID] = place.Location{}
		}},
		{"place/out-of-grid", "clb-sub-slot", placeArts, func(t *testing.T, a *Artifacts) {
			b := firstBlock(t, a.Problem, true)
			a.Placement.Loc[b.ID].Sub = 1
		}},
		{"place/io-perimeter", "pad-on-logic-site", placeArts, padMove(func(int, int) place.Location {
			return place.Location{X: 1, Y: 1}
		})},
		{"place/io-perimeter", "pad-outside-grid", placeArts, padMove(func(_, h int) place.Location {
			return place.Location{X: 0, Y: h + 5}
		})},
		{"place/io-perimeter", "pad-sub-slot", placeArts, func(t *testing.T, a *Artifacts) {
			b := firstBlock(t, a.Problem, false)
			a.Placement.Loc[b.ID].Sub = a.Problem.Arch.IORate
		}},
		{"place/defective-site", "bad-clb-site", placeArts, func(t *testing.T, a *Artifacts) {
			l := a.Placement.Loc[firstBlock(t, a.Problem, true).ID]
			a.Defects = &fault.DefectMap{BadCLBs: []fault.SiteRef{{X: l.X, Y: l.Y}}}
		}},

		{"route/connectivity", "truncated-path", routeArts, func(t *testing.T, a *Artifacts) {
			for _, nr := range a.Routing.Routes {
				if len(nr.Paths) > 0 && len(nr.Paths[0]) > 1 {
					nr.Paths[0] = nr.Paths[0][:len(nr.Paths[0])-1]
					return
				}
			}
			t.Fatal("no path to truncate")
		}},
		{"route/connectivity", "missing-edge", routeArts, func(t *testing.T, a *Artifacts) {
			for _, nr := range a.Routing.Routes {
				if len(nr.Paths) > 0 && len(nr.Paths[0]) >= 3 {
					p := nr.Paths[0]
					nr.Paths[0] = append([]int{p[0]}, p[2:]...)
					return
				}
			}
			t.Fatal("no route long enough to cut")
		}},
		{"route/connectivity", "missing-location", routeArts, dropLocation},
		{"route/overuse", "zero-capacity-wire", routeArts, func(t *testing.T, a *Artifacts) {
			a.Routing.Graph.Capacity[usedWire(t, a)] = 0
		}},
		{"route/dead-resource", "dead-wire", routeArts, func(t *testing.T, a *Artifacts) {
			n := a.Routing.Graph.Node(usedWire(t, a))
			dm := &fault.DefectMap{DeadWires: []fault.WireRef{
				{Vertical: n.Type == rrgraph.ChanY, X: n.X, Y: n.Y, Track: n.Track}}}
			a.Defects, a.Routing.Defects = dm, dm.Overlay(a.Routing.Graph)
		}},

		{"bits/decode", "truncated-stream", bitsArts, func(_ *testing.T, a *Artifacts) { a.Encoded = a.Encoded[:8] }},
		{"bits/lut-mask", "flipped-lut-bit", bitsArts, func(t *testing.T, a *Artifacts) {
			l := a.Placement.Loc[firstBlock(t, a.Problem, true).ID]
			recode(t, a, func(bs *bitstream.Bitstream) {
				cfg, err := bs.CLBAt(l.X, l.Y)
				if err != nil {
					t.Fatal(err)
				}
				cfg.BLEs[0].LUT[0] = !cfg.BLEs[0].LUT[0]
			})
		}},
		{"bits/lut-mask", "missing-location", bitsArts, dropLocation},
		{"bits/switch-route", "dropped-switch", bitsArts, func(t *testing.T, a *Artifacts) {
			recode(t, a, func(bs *bitstream.Bitstream) {
				if !dropEdge(bs, func(from, _ rrgraph.Node) bool { return from.Type == rrgraph.OPin }) {
					t.Fatal("no output-pin connection enabled")
				}
			})
		}},
		{"bits/pads", "misdirected-pad", bitsArts, func(t *testing.T, a *Artifacts) {
			l := a.Placement.Loc[firstBlock(t, a.Problem, false).ID]
			recode(t, a, func(bs *bitstream.Bitstream) {
				pad := bs.Pads[[3]int{l.X, l.Y, l.Sub}]
				pad.Input = !pad.Input
			})
		}},
		{"bits/pads", "missing-location", bitsArts, dropLocation},
		{"bitstream/stuck-bit", "missing-location", bitsArts, func(t *testing.T, a *Artifacts) {
			a.Defects = &fault.DefectMap{StuckBits: []fault.StuckBit{{X: 1, Y: 1}}}
			dropLocation(t, a)
		}},
		{"bitstream/stuck-bit", "conflicting-stuck-bit", bitsArts, func(t *testing.T, a *Artifacts) {
			l := a.Placement.Loc[firstBlock(t, a.Problem, true).ID]
			cfg, err := a.Bitstream.CLBAt(l.X, l.Y)
			if err != nil {
				t.Fatal(err)
			}
			a.Defects = &fault.DefectMap{StuckBits: []fault.StuckBit{
				{X: l.X, Y: l.Y, BLE: 0, Bit: 0, Value: !cfg.BLEs[0].LUT[0]}}}
		}},
	}
}

// fixtureMessages pins part of the diagnostic a fixture must produce
// where its rule reports more than one kind of fault, keyed rule/name.
var fixtureMessages = map[string]string{
	"route/connectivity/missing-edge":      "path uses missing RR edge",
	"route/connectivity/missing-location":  "placement has",
	"bits/lut-mask/missing-location":       "placement has",
	"bits/pads/missing-location":           "placement has",
	"bitstream/stuck-bit/missing-location": "placement has",
}

// dropLocation leaves the placement one location short, which every rule
// that reads the placement must report rather than skip.
func dropLocation(_ *testing.T, a *Artifacts) {
	a.Placement.Loc = a.Placement.Loc[:len(a.Placement.Loc)-1]
}

// fired reports whether rule produced a diagnostic containing msg.
func fired(rep *Report, rule, msg string) bool {
	for _, d := range rep.Diags {
		if d.Rule == rule && strings.Contains(d.Message, msg) {
			return true
		}
	}
	return false
}

// TestEveryRuleHasFiringFixture fails on a registered rule without a
// fixture, on a fixture whose rule already fires on the clean artifacts,
// and on a fixture whose corruption does not make its rule fire.
func TestEveryRuleHasFiringFixture(t *testing.T) {
	fixtures := ruleFixtures()
	for _, c := range rrGraphCorruptions {
		corrupt := c.corrupt
		fixtures = append(fixtures, fixture{c.rule, c.name, graphArts,
			func(_ *testing.T, a *Artifacts) { corrupt(a.Graph) }})
	}
	covered := map[string]bool{}
	for _, f := range fixtures {
		rule := RuleByID(f.rule)
		if rule == nil {
			t.Errorf("fixture %s names unregistered rule %s", f.name, f.rule)
			continue
		}
		covered[f.rule] = true
		t.Run(f.rule+"/"+f.name, func(t *testing.T) {
			a := f.clean(t)
			if rep := RunStage(rule.Stage, a); fired(rep, f.rule, "") {
				t.Fatalf("fires on the clean artifacts:\n%s", rep.Format())
			}
			f.corrupt(t, a)
			msg := fixtureMessages[f.rule+"/"+f.name]
			if rep := RunStage(rule.Stage, a); !fired(rep, f.rule, msg) {
				t.Errorf("did not fire with %q on the corrupted artifacts; got:\n%s", msg, rep.Format())
			}
		})
	}
	for _, r := range Rules() {
		if !covered[r.ID] {
			t.Errorf("rule %s has no firing fixture", r.ID)
		}
	}
}
