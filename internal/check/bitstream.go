package check

import (
	"fmt"
	"math/bits"

	"fpgaflow/internal/bitstream"
	"fpgaflow/internal/place"
	"fpgaflow/internal/rrgraph"
)

// Bitstream-stage rules: decode the DAGGER bitstream back out of its binary
// form and cross-check it against the placed-and-routed design — LUT masks
// and register bits against the packed netlist, enabled routing switches
// against the PathFinder route trees, the pad table against the placement.
// Every comparison recomputes the expected side from the upstream
// artifacts, so a bug in Generate, Encode or Decode surfaces here instead
// of as a wrong extraction or a misbehaving device.

func hasEncoded(a *Artifacts) bool { return len(a.Encoded) > 0 && a.Arch != nil }

func hasFullDesign(a *Artifacts) bool {
	return len(a.Encoded) > 0 && a.Packing != nil && hasRouting(a)
}

func init() {
	register(Rule{
		ID:       "bits/decode",
		Stage:    StageBitstream,
		Severity: Error,
		Doc:      "the encoded bitstream fails to decode, or decodes to a different architecture",
		Applies:  hasEncoded,
		Run:      runBitsDecode,
	})
	register(Rule{
		ID:       "bits/lut-mask",
		Stage:    StageBitstream,
		Severity: Error,
		Doc:      "a decoded LUT mask, register mux or FF init bit disagrees with the packed netlist",
		Applies:  hasFullDesign,
		Run:      runBitsLUTMask,
	})
	register(Rule{
		ID:       "bits/switch-route",
		Stage:    StageBitstream,
		Severity: Error,
		Doc:      "the decoded routing switch states disagree with the routed design's switch set",
		Applies:  hasFullDesign,
		Run:      runBitsSwitchRoute,
	})
	register(Rule{
		ID:       "bits/pads",
		Stage:    StageBitstream,
		Severity: Error,
		Doc:      "the decoded pad table disagrees with the placement (missing, misplaced or misdirected pads)",
		Applies:  hasFullDesign,
		Run:      runBitsPads,
	})
}

// decodeFor returns the decoded bitstream, decoding Encoded on Graph (a
// nil Graph builds the header's) only on the first call; every calling
// rule reports its own diagnostic when the decode fails.
func decodeFor(a *Artifacts, rep *reporter) *bitstream.Bitstream {
	if a.decoded == nil && a.decodeErr == nil {
		a.decoded, a.decodeErr = bitstream.DecodeOn(a.Encoded, a.Graph)
	}
	if a.decodeErr != nil {
		rep.add("", "decode failed: %v", a.decodeErr)
		return nil
	}
	return a.decoded
}

func runBitsDecode(a *Artifacts, rep *reporter) {
	bs := decodeFor(a, rep)
	if bs == nil {
		return
	}
	d, w := bs.Arch, a.Arch
	if d.Rows != w.Rows || d.Cols != w.Cols {
		rep.add("", "decoded grid %dx%d, design uses %dx%d", d.Cols, d.Rows, w.Cols, w.Rows)
	}
	if d.CLB.N != w.CLB.N || d.CLB.K != w.CLB.K || d.CLB.I != w.CLB.I {
		rep.add("", "decoded CLB N=%d K=%d I=%d, design uses N=%d K=%d I=%d",
			d.CLB.N, d.CLB.K, d.CLB.I, w.CLB.N, w.CLB.K, w.CLB.I)
	}
	if d.Routing.ChannelWidth != w.Routing.ChannelWidth {
		rep.add("", "decoded channel width %d, design uses %d",
			d.Routing.ChannelWidth, w.Routing.ChannelWidth)
	}
}

func runBitsLUTMask(a *Artifacts, rep *reporter) {
	if !placementFits(a, rep) {
		return
	}
	bs := decodeFor(a, rep)
	if bs == nil {
		return
	}
	k := a.Arch.CLB.K
	for _, b := range a.Problem.Blocks {
		if b.Kind != place.BlockCLB {
			continue
		}
		l := a.Placement.Loc[b.ID]
		cfg, err := bs.CLBAt(l.X, l.Y)
		if err != nil {
			rep.add(b.Name, "placed at (%d,%d): %v", l.X, l.Y, err)
			continue
		}
		for i, ble := range b.Cluster.BLEs {
			if i >= len(cfg.BLEs) {
				rep.add(b.Name, "cluster has %d BLEs, decoded tile only %d", len(b.Cluster.BLEs), len(cfg.BLEs))
				break
			}
			bc := &cfg.BLEs[i]
			want, err := bitstream.ExpectedLUT(ble, k)
			if err != nil {
				rep.add(ble.Name(), "cannot compute expected LUT mask: %v", err)
				continue
			}
			for m := range want {
				if m >= len(bc.LUT) || bc.LUT[m] != want[m] {
					rep.add(ble.Name(), "LUT mask bit %d decoded %v, netlist wants %v",
						m, bitAt(bc.LUT, m), want[m])
					break
				}
			}
			if bc.Registered != ble.Registered() {
				rep.add(ble.Name(), "register mux decoded %v, packing wants %v", bc.Registered, ble.Registered())
			}
			if ble.FF != nil && bc.Init != (ble.FF.Init == '1') {
				rep.add(ble.Name(), "FF init decoded %v, netlist wants %v", bc.Init, ble.FF.Init == '1')
			}
		}
	}
}

func bitAt(lut []bool, m int) bool { return m < len(lut) && lut[m] }

// expectedRouting recomputes the routing frame from the route trees,
// independently of what Generate produced, and reports a routed hop that
// touches a wire but is no configurable edge.
func expectedRouting(a *Artifacts, rep *reporter) []uint64 {
	g := a.Routing.Graph
	want := make([]uint64, (g.NumConfigEdges()+63)/64)
	for _, nr := range a.Routing.Routes {
		if nr == nil {
			continue
		}
		for _, path := range nr.Paths {
			for i := 0; i+1 < len(path); i++ {
				from, to := path[i], path[i+1]
				if !g.Type[from].IsWire() && !g.Type[to].IsWire() {
					continue
				}
				ord, ok := g.ConfigEdge(from, to)
				if !ok {
					rep.add(edgeName(g, [2]int{from, to}), "routed hop is not a configurable edge")
					continue
				}
				want[ord/64] |= 1 << uint(ord%64)
			}
		}
	}
	return want
}

func runBitsSwitchRoute(a *Artifacts, rep *reporter) {
	bs := decodeFor(a, rep)
	if bs == nil {
		return
	}
	g := a.Routing.Graph
	want := expectedRouting(a, rep)
	if len(bs.Routing) != len(want) {
		rep.add("", "decoded routing frame has %d words, the routed graph %d", len(bs.Routing), len(want))
		return
	}
	for i := range want {
		for diff := want[i] ^ bs.Routing[i]; diff != 0; diff &= diff - 1 {
			bit := bits.TrailingZeros64(diff)
			from, to := g.ConfigEdgeAt(i*64 + bit)
			kind := "wire switch"
			switch {
			case g.Type[from] == rrgraph.OPin:
				kind = "output-pin connection"
			case g.Type[to] == rrgraph.IPin:
				kind = "input-pin connection"
			}
			if want[i]&(1<<uint(bit)) != 0 {
				rep.add(edgeName(g, [2]int{from, to}), "routed %s missing from the bitstream", kind)
			} else {
				rep.add(edgeName(g, [2]int{from, to}), "bitstream enables a %s no net routes through", kind)
			}
		}
	}
}

func edgeName(g *rrgraph.Graph, key [2]int) string {
	name := func(id int) string {
		if id < 0 || id >= g.NumNodes() {
			return fmt.Sprintf("#%d", id)
		}
		return rrNodeName(g.Node(id))
	}
	return name(key[0]) + "<->" + name(key[1])
}

func runBitsPads(a *Artifacts, rep *reporter) {
	if !placementFits(a, rep) {
		return
	}
	bs := decodeFor(a, rep)
	if bs == nil {
		return
	}
	expected := map[[3]int]*place.Block{}
	for _, b := range a.Problem.Blocks {
		if b.Kind == place.BlockCLB {
			continue
		}
		l := a.Placement.Loc[b.ID]
		key := [3]int{l.X, l.Y, l.Sub}
		expected[key] = b
		pad, ok := bs.Pads[key]
		if !ok {
			rep.add(b.Name, "%s at (%d,%d,%d) has no decoded pad entry", b.Kind, l.X, l.Y, l.Sub)
			continue
		}
		wantInput := b.Kind == place.BlockInpad
		if pad.Input != wantInput {
			rep.add(b.Name, "pad direction decoded input=%v, placement wants input=%v", pad.Input, wantInput)
		}
		wantName := b.Name
		if b.Kind == place.BlockOutpad {
			wantName = b.Name[len("out:"):]
		}
		if pad.Name != wantName {
			rep.add(b.Name, "pad name decoded %q, want %q", pad.Name, wantName)
		}
	}
	for key, pad := range bs.Pads {
		if pad.Used && expected[key] == nil {
			rep.add(pad.Name, "bitstream configures a pad at (%d,%d,%d) where no block is placed",
				key[0], key[1], key[2])
		}
	}
}
