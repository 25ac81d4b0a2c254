package main

import (
	"fmt"
	"math/rand"

	"fpgaflow/internal/bitstream"
	"fpgaflow/internal/netlist"
)

// The reference check decodes a compiled bitstream, extracts the netlist
// it configures and simulates that netlist against the generator's own
// model of the design. It shares no code with the flow's closing Verify
// stage beyond the bitstream decoder and extractor: the model side is the
// generator's gate masks, and the extracted side is evaluated here.

const (
	refVectors = 256 // input vectors per combinational check
	refCycles  = 96  // clock cycles per sequential check
)

// modelSim evaluates a generated design cycle by cycle: gates settle from
// the inputs and the current register values, outputs are sampled, then
// every register loads its D value (BLIF .latch semantics, reset to 0).
type modelSim struct {
	d   *design
	val map[string]bool
}

func newModelSim(d *design) *modelSim {
	m := &modelSim{d: d, val: make(map[string]bool)}
	for _, l := range d.latches {
		m.val[l.q] = false
	}
	return m
}

func (m *modelSim) step(in map[string]bool) map[string]bool {
	for k, v := range in {
		m.val[k] = v
	}
	for _, g := range m.d.gates {
		row := 0
		for _, f := range g.fanin {
			row <<= 1
			if m.val[f] {
				row |= 1
			}
		}
		m.val[g.out] = g.mask>>row&1 == 1
	}
	out := make(map[string]bool, len(m.d.outputs))
	for _, o := range m.d.outputs {
		out[o] = m.val[o]
	}
	next := make([]bool, len(m.d.latches))
	for i, l := range m.d.latches {
		next[i] = m.val[l.d]
	}
	for i, l := range m.d.latches {
		m.val[l.q] = next[i]
	}
	return out
}

// netSim evaluates an extracted netlist with the same cycle semantics.
type netSim struct {
	nl   *netlist.Netlist
	topo []*netlist.Node
	val  map[*netlist.Node]bool
}

func newNetSim(nl *netlist.Netlist) (*netSim, error) {
	topo, err := nl.TopoSort()
	if err != nil {
		return nil, err
	}
	s := &netSim{nl: nl, topo: topo, val: make(map[*netlist.Node]bool)}
	for _, n := range nl.Nodes() {
		if n.Kind == netlist.KindLatch {
			s.val[n] = n.Init == '1'
		}
	}
	return s, nil
}

func (s *netSim) step(in map[string]bool) (map[string]bool, error) {
	for _, n := range s.nl.Inputs {
		v, ok := in[n.Name]
		if !ok {
			return nil, fmt.Errorf("extracted input %q is not a design input", n.Name)
		}
		s.val[n] = v
	}
	for _, n := range s.topo {
		if n.Kind == netlist.KindLogic {
			s.val[n] = s.cover(n)
		}
	}
	out := make(map[string]bool, len(s.nl.Outputs))
	for _, o := range s.nl.Outputs {
		n := s.nl.Node(o)
		if n == nil {
			return nil, fmt.Errorf("extracted output %q has no driver", o)
		}
		out[o] = s.val[n]
	}
	var next []bool
	var latches []*netlist.Node
	for _, n := range s.nl.Nodes() {
		if n.Kind == netlist.KindLatch {
			latches = append(latches, n)
			next = append(next, s.val[n.Fanin[0]])
		}
	}
	for i, n := range latches {
		s.val[n] = next[i]
	}
	return out, nil
}

// cover evaluates a node's sum-of-products cover on its fan-in values.
func (s *netSim) cover(n *netlist.Node) bool {
	hit := false
	for _, cube := range n.Cover.Cubes {
		match := true
		for i, lit := range cube {
			v := s.val[n.Fanin[i]]
			if (lit == netlist.LitOne && !v) || (lit == netlist.LitZero && v) {
				match = false
				break
			}
		}
		if match {
			hit = true
			break
		}
	}
	if n.Cover.Value == netlist.LitZero {
		return !hit
	}
	return hit
}

// checkReference decodes and extracts the encoded bitstream and compares
// it with the design's model on fixed seeded vectors: refVectors
// independent vectors for a combinational design, refCycles consecutive
// clock cycles from reset for a registered one.
func checkReference(d *design, encoded []byte) error {
	bs, err := bitstream.Decode(encoded)
	if err != nil {
		return fmt.Errorf("%s: decode: %w", d.name, err)
	}
	nl, err := bitstream.Extract(bs)
	if err != nil {
		return fmt.Errorf("%s: extract: %w", d.name, err)
	}
	if len(nl.Outputs) != len(d.outputs) {
		return fmt.Errorf("%s: extracted %d outputs, design has %d", d.name, len(nl.Outputs), len(d.outputs))
	}
	got, err := newNetSim(nl)
	if err != nil {
		return fmt.Errorf("%s: extracted netlist: %w", d.name, err)
	}
	want := newModelSim(d)
	rng := rand.New(rand.NewSource(d.seed))
	steps := refVectors
	if len(d.latches) > 0 {
		steps = refCycles
	}
	in := make(map[string]bool, len(d.inputs))
	for i := 0; i < steps; i++ {
		for _, name := range d.inputs {
			in[name] = rng.Intn(2) == 1
		}
		w := want.step(in)
		g, err := got.step(in)
		if err != nil {
			return fmt.Errorf("%s: %w", d.name, err)
		}
		for _, o := range d.outputs {
			gv, ok := g[o]
			if !ok {
				return fmt.Errorf("%s: output %q missing from the bitstream", d.name, o)
			}
			if gv != w[o] {
				return fmt.Errorf("%s: output %q is %v at vector %d, model says %v", d.name, o, gv, i, w[o])
			}
		}
	}
	return nil
}
