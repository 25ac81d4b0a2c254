package bitstream

import (
	"fmt"
	"math/bits"
	"sort"

	"fpgaflow/internal/logic"
	"fpgaflow/internal/netlist"
	"fpgaflow/internal/rrgraph"
)

// Extract reconstructs the configured logic as a netlist: it traces the
// enabled routing switches into electrical nets, decodes every CLB's LUT
// masks, input muxes and register bits, and names primary inputs/outputs
// from the pad table. The result is functionally equivalent to the design
// the bitstream was generated from (internal BLE signals get synthetic
// names).
func Extract(bs *Bitstream) (*netlist.Netlist, error) {
	g, a := bs.Graph, bs.Arch

	// Electrical nets: union-find over wires joined by enabled switches.
	parent := make([]int, g.NumNodes())
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(x, y int) { parent[find(x)] = find(y) }
	enabledEdges(g, bs.Routing, func(from, to int) {
		if isWire(g, from) && isWire(g, to) {
			union(from, to)
		}
	})

	// Drivers (enabled OPin->wire connections) and loads (wire->IPin).
	driverOPin := make(map[int]int) // net root -> opin node
	ipinNet := make(map[int]int)    // ipin node -> net root
	var err error
	enabledEdges(g, bs.Routing, func(from, to int) {
		switch {
		case err != nil:
		case g.Type[from] == rrgraph.OPin:
			root := find(to)
			if prev, dup := driverOPin[root]; dup && prev != from {
				err = fmt.Errorf("bitstream: net contention: opins %d and %d drive one net", prev, from)
			}
			driverOPin[root] = from
		case g.Type[to] == rrgraph.IPin:
			if prev, dup := ipinNet[to]; dup && prev != find(from) {
				err = fmt.Errorf("bitstream: input pin %d driven by two nets", to)
			}
			ipinNet[to] = find(from)
		}
	})
	if err != nil {
		return nil, err
	}

	nl := netlist.New(bs.ModelName + "_extracted")

	// Pads: inputs become primary inputs; outputs remembered for later.
	type outPad struct {
		name string
		ipin int
	}
	var outputs []outPad
	opinSignal := make(map[int]string) // opin node -> driving signal name
	padKeys := make([][3]int, 0, len(bs.Pads))
	for k := range bs.Pads {
		padKeys = append(padKeys, k)
	}
	sort.Slice(padKeys, func(i, j int) bool {
		a, b := padKeys[i], padKeys[j]
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		if a[1] != b[1] {
			return a[1] < b[1]
		}
		return a[2] < b[2]
	})
	for _, key := range padKeys {
		pad := bs.Pads[key]
		x, y := key[0], key[1]
		if pad.Input {
			if _, err := nl.AddInput(pad.Name); err != nil {
				return nil, err
			}
			if pad.Used {
				ops := g.OPins(x, y)
				if pad.PinIdx < 0 || pad.PinIdx >= len(ops) {
					return nil, fmt.Errorf("bitstream: pad %q pin %d out of range", pad.Name, pad.PinIdx)
				}
				opinSignal[ops[pad.PinIdx]] = pad.Name
			}
			continue
		}
		ips := g.IPins(x, y)
		if pad.PinIdx < 0 || pad.PinIdx >= len(ips) {
			return nil, fmt.Errorf("bitstream: pad %q pin %d out of range", pad.Name, pad.PinIdx)
		}
		outputs = append(outputs, outPad{pad.Name, ips[pad.PinIdx]})
	}

	// CLB outputs: synthetic signal names per (x, y, output pin).
	bleOut := func(x, y, i int) string { return fmt.Sprintf("ble_%d_%d_%d", x, y, i) }
	for x := 1; x <= a.Cols; x++ {
		for y := 1; y <= a.Rows; y++ {
			cfg := bs.CLBs[x-1][y-1]
			for _, op := range g.OPins(x, y) {
				pin := int(g.Pin[op]) - a.CLB.I
				if pin < 0 || pin >= len(cfg.OutputSel) {
					return nil, fmt.Errorf("bitstream: clb (%d,%d) opin %d", x, y, pin)
				}
				opinSignal[op] = bleOut(x, y, cfg.OutputSel[pin])
			}
		}
	}

	// netSignal resolves the signal name arriving at an input pin.
	var gndNode *netlist.Node
	ground := func() (*netlist.Node, error) {
		if gndNode != nil {
			return gndNode, nil
		}
		n, err := nl.AddLogic(nl.FreshName("gnd"), nil, netlist.Cover{Value: netlist.LitOne})
		if err != nil {
			return nil, err
		}
		gndNode = n
		return n, nil
	}
	signalAtIPin := func(ip int) (string, bool) {
		root, ok := ipinNet[ip]
		if !ok {
			return "", false
		}
		op, ok := driverOPin[root]
		if !ok {
			return "", false
		}
		sig, ok := opinSignal[op]
		return sig, ok
	}

	// Create BLE nodes. Two passes: declare latches and logic names first
	// (feedback), then connect fanins.
	type pending struct {
		x, y, i int
		cfg     *BLEConfig
	}
	var pend []pending
	for x := 1; x <= a.Cols; x++ {
		for y := 1; y <= a.Rows; y++ {
			cfg := bs.CLBs[x-1][y-1]
			for i := range cfg.BLEs {
				pend = append(pend, pending{x, y, i, &cfg.BLEs[i]})
			}
		}
	}
	// First pass: declare every BLE output node so intra-cluster feedback
	// (combinational or registered, in any BLE order) resolves.
	for _, pd := range pend {
		name := bleOut(pd.x, pd.y, pd.i)
		if pd.cfg.Registered {
			init := byte('0')
			if pd.cfg.Init {
				init = '1'
			}
			q, err := nl.AddLatch(name, nil, init, "")
			if err != nil {
				return nil, err
			}
			q.Fanin = nil
		} else {
			if _, err := nl.AddLogic(name, nil, netlist.Cover{Value: netlist.LitOne}); err != nil {
				return nil, err
			}
		}
	}
	for _, pd := range pend {
		name := bleOut(pd.x, pd.y, pd.i)
		k := a.CLB.K
		fanin := make([]*netlist.Node, 0, k)
		for _, sel := range pd.cfg.InputSel {
			var src *netlist.Node
			switch {
			case sel < 0 || sel >= a.CLB.I+a.CLB.N:
				return nil, fmt.Errorf("bitstream: input select %d out of range", sel)
			case sel < a.CLB.I:
				ips := g.IPins(pd.x, pd.y)
				sig, ok := signalAtIPin(ips[sel])
				if ok {
					src = nl.Node(sig)
					if src == nil {
						return nil, fmt.Errorf("bitstream: signal %q referenced before creation", sig)
					}
				} else {
					gnd, err := ground()
					if err != nil {
						return nil, err
					}
					src = gnd
				}
			default:
				src = nl.Node(bleOut(pd.x, pd.y, sel-a.CLB.I))
				if src == nil {
					return nil, fmt.Errorf("bitstream: feedback to missing BLE %d", sel-a.CLB.I)
				}
			}
			fanin = append(fanin, src)
		}
		lut := make([]uint64, netlist.TableWords(k))
		for r, on := range pd.cfg.LUT {
			if on {
				lut[r>>6] |= 1 << uint(r&63)
			}
		}
		cover := logic.MinimizeTruthTable(lut, k)
		// Unused LUT inputs have all-don't-care columns; their input-mux
		// selects are meaningless configuration leftovers and may point
		// anywhere (even at signals that depend on this BLE). Drop them so
		// the reconstructed netlist has no spurious structural cycles.
		fanin, cover = pruneDontCareInputs(fanin, cover)
		if pd.cfg.Registered {
			dname := nl.FreshName(name + "_d")
			d, err := nl.AddLogic(dname, fanin, cover)
			if err != nil {
				return nil, err
			}
			nl.Node(name).Fanin = []*netlist.Node{d}
		} else {
			n := nl.Node(name)
			n.Fanin = fanin
			n.Cover = cover
		}
	}

	// Primary outputs: buffers named by the pad table.
	for _, op := range outputs {
		sig, ok := signalAtIPin(op.ipin)
		if !ok {
			return nil, fmt.Errorf("bitstream: output pad %q has no driving net", op.name)
		}
		src := nl.Node(sig)
		if src == nil {
			return nil, fmt.Errorf("bitstream: output %q driver %q missing", op.name, sig)
		}
		if src.Name != op.name {
			// Rename the pad's view of the net with a buffer.
			if _, err := nl.AddLogic(op.name, []*netlist.Node{src},
				netlist.Cover{Cubes: []netlist.Cube{{netlist.LitOne}}, Value: netlist.LitOne}); err != nil {
				return nil, err
			}
		}
		nl.MarkOutput(op.name)
	}

	nl.Sweep()
	if err := nl.Check(); err != nil {
		return nil, fmt.Errorf("bitstream: extracted netlist invalid: %w", err)
	}
	return nl, nil
}

// pruneDontCareInputs removes fanin positions that are don't-care in every
// cube of the cover.
func pruneDontCareInputs(fanin []*netlist.Node, c netlist.Cover) ([]*netlist.Node, netlist.Cover) {
	used := make([]bool, len(fanin))
	for _, cube := range c.Cubes {
		for i, lit := range cube {
			if lit != netlist.LitDC {
				used[i] = true
			}
		}
	}
	all := true
	for _, u := range used {
		if !u {
			all = false
		}
	}
	if all {
		return fanin, c
	}
	var keepIdx []int
	var newFanin []*netlist.Node
	for i, u := range used {
		if u {
			keepIdx = append(keepIdx, i)
			newFanin = append(newFanin, fanin[i])
		}
	}
	newCover := netlist.Cover{Value: c.Value}
	for _, cube := range c.Cubes {
		nc := make(netlist.Cube, len(keepIdx))
		for j, i := range keepIdx {
			nc[j] = cube[i]
		}
		newCover.Cubes = append(newCover.Cubes, nc)
	}
	return newFanin, newCover
}

func isWire(g *rrgraph.Graph, id int) bool {
	return id >= 0 && id < g.NumNodes() && g.Type[id].IsWire()
}

// enabledEdges calls fn with the endpoints of every configurable edge
// whose bit is set in words, in ordinal order.
func enabledEdges(g *rrgraph.Graph, words []uint64, fn func(from, to int)) {
	for i, w := range words {
		for ; w != 0; w &= w - 1 {
			fn(g.ConfigEdgeAt(i*64 + bits.TrailingZeros64(w)))
		}
	}
}
