// Package netlist provides the logic-network intermediate representation
// shared by every stage of the flow: a directed acyclic graph of
// single-output logic nodes (sum-of-products covers, as in BLIF .names),
// latches, and primary inputs/outputs.
//
// The same structure represents a generic gate network (after synthesis),
// a K-LUT network (after technology mapping), and the packed view keeps
// referring to it, so equivalence can be checked at any point in the flow.
package netlist

import (
	"fmt"
	"sort"
)

// Kind discriminates the node types of a Netlist.
type Kind int

const (
	// KindInput is a primary input; it has no fanin.
	KindInput Kind = iota
	// KindLogic is a single-output combinational node with an SOP cover.
	KindLogic
	// KindLatch is a D flip-flop (BLIF .latch); fanin[0] is D.
	KindLatch
)

func (k Kind) String() string {
	switch k {
	case KindInput:
		return "input"
	case KindLogic:
		return "logic"
	case KindLatch:
		return "latch"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// LitValue is one position of a cube: 0, 1 or don't-care.
type LitValue byte

const (
	// LitZero requires the input to be 0.
	LitZero LitValue = '0'
	// LitOne requires the input to be 1.
	LitOne LitValue = '1'
	// LitDC ignores the input.
	LitDC LitValue = '-'
)

// Cube is one product term over a node's fanins, one LitValue per fanin.
type Cube []LitValue

// Clone returns an independent copy of the cube.
func (c Cube) Clone() Cube {
	d := make(Cube, len(c))
	copy(d, c)
	return d
}

func (c Cube) String() string { return string(c) }

// Cover is a sum of cubes. An empty cover with Value '1' denotes constant 0
// (no minterm is on); by BLIF convention a node whose cover has a single
// zero-length cube is the constant 1.
type Cover struct {
	Cubes []Cube
	// Value is the output value the cubes produce, '1' for an on-set
	// cover (the default) or '0' for an off-set cover.
	Value LitValue
}

// OnSet returns true when the cover lists the on-set.
func (c Cover) OnSet() bool { return c.Value != LitZero }

// Clone returns a deep copy of the cover.
func (c Cover) Clone() Cover {
	d := Cover{Value: c.Value, Cubes: make([]Cube, len(c.Cubes))}
	for i, cube := range c.Cubes {
		d.Cubes[i] = cube.Clone()
	}
	return d
}

// Node is one vertex of the network. A node drives exactly one signal,
// identified by Name.
type Node struct {
	Name  string
	Kind  Kind
	Fanin []*Node
	// Cover is meaningful for KindLogic only.
	Cover Cover
	// Init is the power-up value of a latch: '0', '1', '2' (don't care)
	// or '3' (unknown), following BLIF.
	Init byte
	// Clock names the latch clock signal ("" for the single global clock).
	Clock string

	// fanout is maintained lazily by Netlist.BuildFanout.
	fanout []*Node
	// id is the node's position in its netlist's Nodes().
	id int
}

// ID returns the node's dense number: its position in the owning
// netlist's Nodes(), so nl.Nodes()[n.ID()] == n. Passes index per-node
// slices by it. Sweep renumbers the survivors.
func (n *Node) ID() int { return n.id }

// Fanout returns the fanout list computed by the last BuildFanout call.
func (n *Node) Fanout() []*Node { return n.fanout }

// IsConst reports whether the node is a constant function, and its value.
func (n *Node) IsConst() (bool, bool) {
	if n.Kind != KindLogic || len(n.Fanin) != 0 {
		return false, false
	}
	if len(n.Cover.Cubes) == 0 {
		return true, !n.Cover.OnSet()
	}
	return true, n.Cover.OnSet()
}

// IsBuffer reports whether the node is a single-input identity function.
func (n *Node) IsBuffer() bool {
	if n.Kind != KindLogic || len(n.Fanin) != 1 {
		return false
	}
	c := n.Cover
	return len(c.Cubes) == 1 && len(c.Cubes[0]) == 1 &&
		((c.OnSet() && c.Cubes[0][0] == LitOne) || (!c.OnSet() && c.Cubes[0][0] == LitZero))
}

// IsInverter reports whether the node is a single-input complement.
func (n *Node) IsInverter() bool {
	if n.Kind != KindLogic || len(n.Fanin) != 1 {
		return false
	}
	c := n.Cover
	return len(c.Cubes) == 1 && len(c.Cubes[0]) == 1 &&
		((c.OnSet() && c.Cubes[0][0] == LitZero) || (!c.OnSet() && c.Cubes[0][0] == LitOne))
}

// Netlist is a named logic network.
type Netlist struct {
	Name string
	// Inputs are the primary inputs in declaration order.
	Inputs []*Node
	// Outputs are the primary-output signal names in declaration order;
	// each must name a node in the network.
	Outputs []string
	// nodes indexes every node by name.
	nodes map[string]*Node
	// order preserves insertion order for deterministic iteration.
	order []*Node
}

// New returns an empty netlist with the given model name.
func New(name string) *Netlist {
	return &Netlist{Name: name, nodes: make(map[string]*Node)}
}

// Node returns the node driving the named signal, or nil.
func (nl *Netlist) Node(name string) *Node { return nl.nodes[name] }

// Nodes returns all nodes in insertion order. The slice must not be mutated.
func (nl *Netlist) Nodes() []*Node { return nl.order }

// NumNodes returns the total node count.
func (nl *Netlist) NumNodes() int { return len(nl.order) }

func (nl *Netlist) add(n *Node) (*Node, error) {
	if _, dup := nl.nodes[n.Name]; dup {
		return nil, fmt.Errorf("netlist %s: duplicate driver for signal %q", nl.Name, n.Name)
	}
	nl.nodes[n.Name] = n
	n.id = len(nl.order)
	nl.order = append(nl.order, n)
	return n, nil
}

// Contains reports whether n is a node of this netlist.
func (nl *Netlist) Contains(n *Node) bool {
	return n.id < len(nl.order) && nl.order[n.id] == n
}

// AddInput declares a primary input.
func (nl *Netlist) AddInput(name string) (*Node, error) {
	n, err := nl.add(&Node{Name: name, Kind: KindInput})
	if err != nil {
		return nil, err
	}
	nl.Inputs = append(nl.Inputs, n)
	return n, nil
}

// AddLogic adds a combinational node computing the cover over the fanins.
func (nl *Netlist) AddLogic(name string, fanin []*Node, cover Cover) (*Node, error) {
	for _, cube := range cover.Cubes {
		if len(cube) != len(fanin) {
			return nil, fmt.Errorf("netlist %s: node %q cube width %d != fanin count %d",
				nl.Name, name, len(cube), len(fanin))
		}
	}
	if cover.Value == 0 {
		cover.Value = LitOne
	}
	return nl.add(&Node{Name: name, Kind: KindLogic, Fanin: fanin, Cover: cover})
}

// AddLatch adds a D flip-flop driven by d.
func (nl *Netlist) AddLatch(name string, d *Node, init byte, clock string) (*Node, error) {
	if init == 0 {
		init = '3'
	}
	return nl.add(&Node{Name: name, Kind: KindLatch, Fanin: []*Node{d}, Init: init, Clock: clock})
}

// MarkOutput declares the named signal as a primary output.
func (nl *Netlist) MarkOutput(name string) { nl.Outputs = append(nl.Outputs, name) }

// IsOutput reports whether name is a primary output.
func (nl *Netlist) IsOutput(name string) bool {
	for _, o := range nl.Outputs {
		if o == name {
			return true
		}
	}
	return false
}

// Check validates structural invariants: every output and fanin resolves,
// every node sits at its ID, fanins precede nothing circularly
// (combinational cycles are rejected; cycles through latches are fine),
// and cube widths match fanin counts.
func (nl *Netlist) Check() error {
	for _, o := range nl.Outputs {
		if nl.nodes[o] == nil {
			return fmt.Errorf("netlist %s: output %q has no driver", nl.Name, o)
		}
	}
	for i, n := range nl.order {
		if n.id != i {
			return fmt.Errorf("netlist %s: node %q numbered %d at position %d", nl.Name, n.Name, n.id, i)
		}
		for _, f := range n.Fanin {
			if !nl.Contains(f) {
				return fmt.Errorf("netlist %s: node %q has foreign fanin %q", nl.Name, n.Name, f.Name)
			}
		}
		for _, cube := range n.Cover.Cubes {
			if n.Kind == KindLogic && len(cube) != len(n.Fanin) {
				return fmt.Errorf("netlist %s: node %q cube width mismatch", nl.Name, n.Name)
			}
		}
		if n.Kind == KindLatch && len(n.Fanin) != 1 {
			return fmt.Errorf("netlist %s: latch %q must have exactly one fanin", nl.Name, n.Name)
		}
	}
	if _, err := nl.TopoSort(); err != nil {
		return err
	}
	return nil
}

// TopoSort returns the combinational nodes in topological order (inputs and
// latch outputs are sources). It fails on a combinational cycle or a
// foreign fanin. It writes no node state, so concurrent calls are safe.
func (nl *Netlist) TopoSort() ([]*Node, error) {
	const (
		white = iota
		gray
		black
	)
	mark := make([]uint8, len(nl.order))
	out := make([]*Node, 0, len(nl.order))
	var visit func(n *Node) error
	visit = func(n *Node) error {
		switch mark[n.id] {
		case black:
			return nil
		case gray:
			return fmt.Errorf("netlist %s: combinational cycle through %q", nl.Name, n.Name)
		}
		mark[n.id] = gray
		if n.Kind == KindLogic {
			for _, f := range n.Fanin {
				if !nl.Contains(f) {
					return fmt.Errorf("netlist %s: node %q has foreign fanin %q", nl.Name, n.Name, f.Name)
				}
				if err := visit(f); err != nil {
					return err
				}
			}
		}
		mark[n.id] = black
		out = append(out, n)
		return nil
	}
	for _, n := range nl.order {
		if err := visit(n); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// BuildFanout (re)computes every node's fanout list. Latch D-inputs count as
// fanout of their driver.
func (nl *Netlist) BuildFanout() {
	for _, n := range nl.order {
		n.fanout = n.fanout[:0]
	}
	for _, n := range nl.order {
		for _, f := range n.Fanin {
			f.fanout = append(f.fanout, n)
		}
	}
}

// Sweep removes nodes not reachable from any primary output, through logic
// and latches alike, returning the number of removed nodes. Primary inputs
// are never removed. The survivors are renumbered in order.
func (nl *Netlist) Sweep() int {
	live := make([]bool, len(nl.order))
	var mark func(n *Node)
	mark = func(n *Node) {
		if !nl.Contains(n) || live[n.id] {
			return
		}
		live[n.id] = true
		for _, f := range n.Fanin {
			mark(f)
		}
	}
	for _, o := range nl.Outputs {
		if n := nl.nodes[o]; n != nil {
			mark(n)
		}
	}
	keep := nl.order[:0]
	for _, n := range nl.order {
		if live[n.id] || n.Kind == KindInput {
			n.id = len(keep)
			keep = append(keep, n)
		} else {
			delete(nl.nodes, n.Name)
		}
	}
	removed := len(nl.order) - len(keep)
	clear(nl.order[len(keep):])
	nl.order = keep
	return removed
}

// Stats summarizes a netlist.
type Stats struct {
	Inputs, Outputs, Logic, Latches int
	// MaxFanin is the widest logic node.
	MaxFanin int
	// Depth is the longest combinational path in nodes.
	Depth int
}

// Stats computes summary statistics.
func (nl *Netlist) Stats() Stats {
	s := Stats{Inputs: len(nl.Inputs), Outputs: len(nl.Outputs)}
	depth, _ := nl.Levels()
	for _, n := range nl.order {
		switch n.Kind {
		case KindLogic:
			s.Logic++
			s.MaxFanin = max(s.MaxFanin, len(n.Fanin))
			s.Depth = max(s.Depth, depth[n.id])
		case KindLatch:
			s.Latches++
		}
	}
	return s
}

// Levels returns, indexed by node ID, each node's depth (the logic nodes on
// the longest combinational path ending at it, itself included; 0 for
// inputs and latches) and height (the logic nodes on the longest
// combinational path leaving it, itself excluded). A network that fails
// TopoSort is levelled in insertion order, ignoring foreign fanins.
func (nl *Netlist) Levels() (depth, height []int) {
	topo, err := nl.TopoSort()
	if err != nil {
		topo = nl.order
	}
	depth = make([]int, len(nl.order))
	height = make([]int, len(nl.order))
	for _, n := range topo {
		if n.Kind != KindLogic {
			continue
		}
		d := 0
		for _, f := range n.Fanin {
			if nl.Contains(f) {
				d = max(d, depth[f.id])
			}
		}
		depth[n.id] = d + 1
	}
	for i := len(topo) - 1; i >= 0; i-- {
		n := topo[i]
		if n.Kind != KindLogic {
			continue
		}
		for _, f := range n.Fanin {
			if nl.Contains(f) {
				height[f.id] = max(height[f.id], height[n.id]+1)
			}
		}
	}
	return depth, height
}

// Clone returns a deep copy of the netlist.
func (nl *Netlist) Clone() *Netlist {
	c := New(nl.Name)
	c.Outputs = append([]string(nil), nl.Outputs...)
	for _, n := range nl.order {
		cn := &Node{Name: n.Name, Kind: n.Kind, Cover: n.Cover.Clone(), Init: n.Init, Clock: n.Clock, id: n.id}
		c.nodes[cn.Name] = cn
		c.order = append(c.order, cn)
		if n.Kind == KindInput {
			c.Inputs = append(c.Inputs, cn)
		}
	}
	for _, n := range nl.order {
		cn := c.nodes[n.Name]
		for _, f := range n.Fanin {
			cn.Fanin = append(cn.Fanin, c.nodes[f.Name])
		}
	}
	return c
}

// Rename changes a node's signal name, updating the index and output list.
func (nl *Netlist) Rename(n *Node, name string) error {
	if _, dup := nl.nodes[name]; dup {
		return fmt.Errorf("netlist %s: rename %q: %q already driven", nl.Name, n.Name, name)
	}
	delete(nl.nodes, n.Name)
	for i, o := range nl.Outputs {
		if o == n.Name {
			nl.Outputs[i] = name
		}
	}
	n.Name = name
	nl.nodes[name] = n
	return nil
}

// ReplaceUses redirects every fanin reference of old to repl. Output
// markers naming old are left alone (use Rename for that).
func (nl *Netlist) ReplaceUses(old, repl *Node) {
	for _, n := range nl.order {
		for i, f := range n.Fanin {
			if f == old {
				n.Fanin[i] = repl
			}
		}
	}
}

// FreshName returns a signal name based on prefix that is not yet in use.
func (nl *Netlist) FreshName(prefix string) string {
	if _, used := nl.nodes[prefix]; !used {
		return prefix
	}
	for i := 0; ; i++ {
		name := fmt.Sprintf("%s_%d", prefix, i)
		if _, used := nl.nodes[name]; !used {
			return name
		}
	}
}

// SortedNodeNames returns all node names sorted, for deterministic output.
func (nl *Netlist) SortedNodeNames() []string {
	names := make([]string, 0, len(nl.nodes))
	for name := range nl.nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
