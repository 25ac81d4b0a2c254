package fault

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"fpgaflow/internal/arch"
	"fpgaflow/internal/rrgraph"
)

func testArch() *arch.Arch {
	a := arch.Paper()
	a.Rows, a.Cols = 4, 4
	a.Routing.ChannelWidth = 8
	return a
}

func TestGenerateDeterministic(t *testing.T) {
	a := testArch()
	rates := Rates{DeadWire: 0.05, DeadSwitch: 0.05, BadCLB: 0.1, BadIO: 0.1, StuckBit: 0.002}
	m1, err := Generate(a, 42, rates)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Generate(a, 42, rates)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m1, m2) {
		t.Error("same seed produced different defect maps")
	}
	m3, err := Generate(a, 43, rates)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(m1, m3) {
		t.Error("different seeds produced identical defect maps")
	}
	if m1.Count() == 0 {
		t.Error("positive rates produced an empty defect map")
	}
	if m1.Cols != a.Cols || m1.Rows != a.Rows || m1.ChannelWidth != a.Routing.ChannelWidth {
		t.Errorf("fabric extent not recorded: %s", m1.Summary())
	}
}

func TestGenerateZeroRatesIsClean(t *testing.T) {
	dm, err := Generate(testArch(), 7, Rates{})
	if err != nil {
		t.Fatal(err)
	}
	if dm.Count() != 0 {
		t.Errorf("zero rates produced %d defects", dm.Count())
	}
}

// TestEveryDefectClassApplies verifies, class by class, that an injected
// defect lands where the flow will see it: wire/switch defects populate the
// RR-graph overlay, site defects populate the placement exclusion set, and
// stuck bits are retrievable per site.
func TestEveryDefectClassApplies(t *testing.T) {
	a := testArch()
	cases := []struct {
		name  string
		rates Rates
		check func(t *testing.T, dm *DefectMap, g *rrgraph.Graph, ov *Overlay)
	}{
		{"dead-wire", Rates{DeadWire: 0.1}, func(t *testing.T, dm *DefectMap, g *rrgraph.Graph, ov *Overlay) {
			if ov.DeadNodes != len(dm.DeadWires) {
				t.Errorf("overlay kills %d nodes for %d dead wires", ov.DeadNodes, len(dm.DeadWires))
			}
			dead := 0
			for id := range g.Type {
				if ov.Dead(id) {
					dead++
				}
			}
			if dead != ov.DeadNodes {
				t.Errorf("overlay reports %d dead nodes, marks %d", ov.DeadNodes, dead)
			}
			for _, w := range dm.DeadWires {
				if id, ok := g.WireID(w.Vertical, w.X, w.Y, w.Track); !ok || !ov.Dead(id) {
					t.Errorf("dead wire %+v not masked", w)
				}
			}
		}},
		{"dead-switch", Rates{DeadSwitch: 0.1}, func(t *testing.T, dm *DefectMap, g *rrgraph.Graph, ov *Overlay) {
			if ov.EdgesRemoved == 0 {
				t.Errorf("%d dead switches removed no edges", len(dm.DeadSwitches))
			}
			cut := 0
			for from := range g.Type {
				for k := int(g.EdgeStart[from]); k < int(g.EdgeStart[from+1]); k++ {
					if to := int(g.EdgeTo[k]); ov.Cut(k) {
						if !g.Type[from].IsWire() || !g.Type[to].IsWire() {
							t.Errorf("removed edge %d->%d is no wire-wire switch", from, to)
						}
						if !ov.Blocked(k, to) {
							t.Errorf("removed edge %d->%d not blocked", from, to)
						}
						cut++
					}
				}
			}
			if cut != ov.EdgesRemoved {
				t.Errorf("overlay reports %d removed edges, cuts %d", ov.EdgesRemoved, cut)
			}
		}},
		{"bad-clb", Rates{BadCLB: 0.3}, func(t *testing.T, dm *DefectMap, g *rrgraph.Graph, ov *Overlay) {
			set := dm.BadSiteSet()
			if len(set) != len(dm.BadCLBs) {
				t.Errorf("BadSiteSet has %d entries for %d bad CLBs", len(set), len(dm.BadCLBs))
			}
			for _, s := range dm.BadCLBs {
				if !set[[2]int{s.X, s.Y}] {
					t.Errorf("bad CLB %+v missing from exclusion set", s)
				}
			}
		}},
		{"bad-io", Rates{BadIO: 0.3}, func(t *testing.T, dm *DefectMap, g *rrgraph.Graph, ov *Overlay) {
			set := dm.BadSiteSet()
			for _, s := range dm.BadIOs {
				if !set[[2]int{s.X, s.Y}] {
					t.Errorf("bad IO %+v missing from exclusion set", s)
				}
			}
		}},
		{"stuck-bit", Rates{StuckBit: 0.01}, func(t *testing.T, dm *DefectMap, g *rrgraph.Graph, ov *Overlay) {
			if len(dm.StuckBits) == 0 {
				t.Fatal("no stuck bits generated")
			}
			sb := dm.StuckBits[0]
			found := false
			for _, got := range dm.StuckBitsAt(sb.X, sb.Y) {
				if got == sb {
					found = true
				}
			}
			if !found {
				t.Errorf("StuckBitsAt(%d,%d) lost %+v", sb.X, sb.Y, sb)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dm, err := Generate(a, 11, tc.rates)
			if err != nil {
				t.Fatal(err)
			}
			if dm.Count() == 0 {
				t.Fatalf("rate %+v injected nothing", tc.rates)
			}
			g, err := rrgraph.Build(a)
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, dm, g, dm.Overlay(g))
		})
	}
}

// TestApplyIsIdempotent: resolving a map never modifies the graph, twice
// gives the same overlay, and listing every defect twice masks nothing
// more (no double counting).
func TestApplyIsIdempotent(t *testing.T) {
	a := testArch()
	dm, err := Generate(a, 3, Rates{DeadWire: 0.1, DeadSwitch: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	g, err := rrgraph.Build(a)
	if err != nil {
		t.Fatal(err)
	}
	edges := g.NumEdges()
	first := dm.Overlay(g)
	if first.DeadNodes == 0 || first.EdgesRemoved == 0 {
		t.Fatalf("map masked nothing: %+v", first)
	}
	if !reflect.DeepEqual(first, dm.Overlay(g)) {
		t.Error("resolving the same map twice gave different overlays")
	}
	doubled := *dm
	doubled.DeadWires = append(append([]WireRef(nil), dm.DeadWires...), dm.DeadWires...)
	doubled.DeadSwitches = append(append([]SwitchRef(nil), dm.DeadSwitches...), dm.DeadSwitches...)
	if !reflect.DeepEqual(first, doubled.Overlay(g)) {
		t.Error("repeating every defect changed the overlay")
	}
	if g.NumEdges() != edges {
		t.Errorf("edge count drifted %d -> %d while resolving overlays", edges, g.NumEdges())
	}
	fresh, err := rrgraph.Build(a)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g, fresh) {
		t.Error("resolving an overlay modified the graph")
	}
}

func TestApplyNilMapIsNoop(t *testing.T) {
	g, err := rrgraph.Build(testArch())
	if err != nil {
		t.Fatal(err)
	}
	var dm *DefectMap
	ov := dm.Overlay(g)
	if ov != nil {
		t.Errorf("nil map resolved to an overlay: %+v", ov)
	}
	if ov.Dead(0) || ov.Cut(0) || ov.Blocked(0, 1) {
		t.Error("nil overlay masks resources")
	}
	if dm.Count() != 0 || dm.BadSiteSet() != nil || dm.StuckBitsAt(1, 1) != nil {
		t.Error("nil map accessors not inert")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	dm, err := Generate(testArch(), 9, Rates{DeadWire: 0.05, DeadSwitch: 0.05, BadCLB: 0.1, StuckBit: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "defects.json")
	if err := dm.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dm, back) {
		t.Error("defect map changed across Save/Load")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"{", // syntax
		`{"cols": -1}`,
		`{"dead_wires": [{"x": -3}]}`,
		`{"dead_switches": [{"track": -1}]}`,
		`{"stuck_bits": [{"ble": -1}]}`,
	} {
		if _, err := Unmarshal([]byte(bad)); err == nil {
			t.Errorf("Unmarshal(%q) accepted invalid input", bad)
		}
	}
}

func TestFlipBits(t *testing.T) {
	data := bytes.Repeat([]byte{0xAA}, 64)
	out1 := FlipBits(data, 16, 5)
	out2 := FlipBits(data, 16, 5)
	if !bytes.Equal(out1, out2) {
		t.Error("FlipBits not deterministic")
	}
	if bytes.Equal(out1, data) {
		t.Error("FlipBits changed nothing")
	}
	if len(out1) != len(data) {
		t.Errorf("FlipBits changed length %d -> %d", len(data), len(out1))
	}
	if !bytes.Equal(data, bytes.Repeat([]byte{0xAA}, 64)) {
		t.Error("FlipBits mutated its input")
	}
	if out := FlipBits(nil, 4, 1); len(out) != 0 {
		t.Error("FlipBits on empty input grew data")
	}
}

func TestTruncate(t *testing.T) {
	data := []byte("0123456789")
	if got := Truncate(data, 0.5); string(got) != "01234" {
		t.Errorf("Truncate(0.5) = %q", got)
	}
	if got := Truncate(data, -1); len(got) != 0 {
		t.Errorf("Truncate(-1) kept %d bytes", len(got))
	}
	if got := Truncate(data, 2); len(got) != len(data) {
		t.Errorf("Truncate(2) kept %d bytes", len(got))
	}
}

func TestGarbleText(t *testing.T) {
	const text = ".model top\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n"
	g1 := GarbleText(text, 10, 21)
	g2 := GarbleText(text, 10, 21)
	if g1 != g2 {
		t.Error("GarbleText not deterministic")
	}
	if g1 == text {
		t.Error("GarbleText changed nothing")
	}
	if GarbleText("", 5, 1) != "" {
		t.Error("GarbleText invented text from nothing")
	}
}
