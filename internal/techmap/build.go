package techmap

import (
	"fmt"
	"slices"
	"strings"

	"fpgaflow/internal/logic"
	"fpgaflow/internal/netlist"
)

// byName orders nodes by name, the order of every cut's LUT inputs.
func byName(a, b *netlist.Node) int { return strings.Compare(a.Name, b.Name) }

// buildMapped constructs the LUT netlist from the chosen cuts: cutOf
// returns the LUT inputs of a logic node, or false when no cut covers it.
func buildMapped(nl *netlist.Netlist, cutOf func(*netlist.Node) ([]*netlist.Node, bool)) (*Result, error) {
	out := netlist.New(nl.Name)
	made := make([]*netlist.Node, nl.NumNodes()) // by ID of the source node

	for _, in := range nl.Inputs {
		n, err := out.AddInput(in.Name)
		if err != nil {
			return nil, err
		}
		made[in.ID()] = n
	}
	// Latches first (as placeholders) so feedback resolves; D fanin fixed later.
	for _, n := range nl.Nodes() {
		if n.Kind == netlist.KindLatch {
			q, err := out.AddLatch(n.Name, nil, n.Init, n.Clock)
			if err != nil {
				return nil, err
			}
			q.Fanin = nil
			made[n.ID()] = q
		}
	}

	var ce coneEval
	var emit func(n *netlist.Node) (*netlist.Node, error)
	emit = func(n *netlist.Node) (*netlist.Node, error) {
		if m := made[n.ID()]; m != nil {
			return m, nil
		}
		if n.Kind != netlist.KindLogic {
			return nil, fmt.Errorf("techmap: unexpected %s node %q during emission", n.Kind, n.Name)
		}
		inputs, ok := cutOf(n)
		if !ok {
			return nil, fmt.Errorf("techmap: node %q required but not covered", n.Name)
		}
		mappedIn := make([]*netlist.Node, len(inputs))
		for i, f := range inputs {
			m, err := emit(f)
			if err != nil {
				return nil, err
			}
			mappedIn[i] = m
		}
		fn, err := ce.truthTable(n, inputs)
		if err != nil {
			return nil, err
		}
		lut, err := out.AddLogic(n.Name, mappedIn, logic.MinimizeTruthTable(fn, len(inputs)))
		if err != nil {
			return nil, err
		}
		made[n.ID()] = lut
		return lut, nil
	}

	// Required roots: primary outputs and latch D inputs.
	for _, o := range nl.Outputs {
		n := nl.Node(o)
		if n == nil {
			return nil, fmt.Errorf("techmap: output %q missing", o)
		}
		if _, err := emit(n); err != nil {
			return nil, err
		}
		out.MarkOutput(o)
	}
	for _, n := range nl.Nodes() {
		if n.Kind != netlist.KindLatch {
			continue
		}
		d, err := emit(n.Fanin[0])
		if err != nil {
			return nil, err
		}
		made[n.ID()].Fanin = []*netlist.Node{d}
	}
	out.Sweep()
	// Area recovery: overlapping cuts duplicate cone logic; structurally
	// identical LUTs merge back into one.
	logic.MergeDuplicates(out)
	if err := out.Check(); err != nil {
		return nil, err
	}
	st := out.Stats()
	return &Result{Netlist: out, Depth: st.Depth, LUTs: st.Logic}, nil
}

// coneEval evaluates cone functions bit-parallel, reusing its buffers
// from one cone to the next.
type coneEval struct {
	stamp uint32     // identifies the current cone
	val   []coneSlot // by node ID
	words []uint64
	fin   []int
	in    [][]uint64
}

// coneSlot holds the offset of a node's rows in words, valid while stamp
// is the current cone's.
type coneSlot struct {
	stamp uint32
	off   int
}

// slot returns node n's slot, growing the table to cover its ID.
func (e *coneEval) slot(n *netlist.Node) *coneSlot {
	if id := n.ID(); id >= len(e.val) {
		e.val = append(e.val, make([]coneSlot, id+1-len(e.val))...)
	}
	return &e.val[n.ID()]
}

// truthTable returns the function of node t over the given cut inputs
// (input i is bit i of the row index) as netlist.TableWords(k) words,
// valid until the next call. Each cone node is evaluated once over all
// 2^k rows, 64 rows per word.
func (e *coneEval) truthTable(t *netlist.Node, inputs []*netlist.Node) ([]uint64, error) {
	k := len(inputs)
	if k > 16 {
		return nil, fmt.Errorf("techmap: cut of %d inputs too wide", k)
	}
	nw := netlist.TableWords(k)
	e.stamp++
	e.words, e.fin = e.words[:0], e.fin[:0]
	for i, in := range inputs {
		*e.slot(in) = coneSlot{e.stamp, len(e.words)}
		for w := 0; w < nw; w++ {
			e.words = append(e.words, netlist.ColumnWord(i, w))
		}
	}
	var eval func(n *netlist.Node) (int, error)
	eval = func(n *netlist.Node) (int, error) {
		if s := e.slot(n); s.stamp == e.stamp {
			return s.off, nil
		}
		if n.Kind != netlist.KindLogic {
			return 0, fmt.Errorf("techmap: cone of %q escapes cut at %q", t.Name, n.Name)
		}
		base := len(e.fin)
		for _, f := range n.Fanin {
			off, err := eval(f)
			if err != nil {
				return 0, err
			}
			e.fin = append(e.fin, off)
		}
		off := len(e.words)
		e.words = slices.Grow(e.words, nw)[:off+nw]
		e.in = e.in[:0]
		for _, fo := range e.fin[base:] {
			e.in = append(e.in, e.words[fo:fo+nw])
		}
		netlist.EvalCoverWords(n.Cover, e.in, e.words[off:])
		e.fin = e.fin[:base]
		*e.slot(n) = coneSlot{e.stamp, off}
		return off, nil
	}
	off, err := eval(t)
	if err != nil {
		return nil, err
	}
	return e.words[off : off+nw], nil
}
