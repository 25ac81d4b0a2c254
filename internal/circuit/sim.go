// Package circuit is the transistor-level substrate of the reproduction: an
// event-driven switch/gate-level simulator with per-node capacitance,
// RC-derived gate delays and switched-capacitance energy accounting,
// calibrated to the 0.18 um process constants in internal/arch. It stands in
// for the paper's Cadence/STM 0.18 um simulations and regenerates Tables 1-3
// (DETFF selection, clock gating at BLE and CLB level) and Figures 8-10
// (routing switch sizing vs. wire geometry).
package circuit

import (
	"fmt"
	"sort"

	"fpgaflow/internal/arch"
)

// Node is an electrical net with a lumped capacitance.
type Node struct {
	Name string
	// Cap is the total capacitance on the node in farads (gate loads are
	// added automatically as gates attach).
	Cap float64
	// V is the current logic value.
	V bool

	id     int
	fanout []int // gate indices
}

// GateKind enumerates the primitive cells.
type GateKind int

const (
	// Inv is a static CMOS inverter.
	Inv GateKind = iota
	// Nand2 is a 2-input NAND.
	Nand2
	// Nor2 is a 2-input NOR.
	Nor2
	// TriInv is a tri-state inverter: out = !in when en=1, else hold
	// (high-impedance keeps the node value).
	TriInv
	// TriInvN is the complementary-enable tri-state inverter (conducts when
	// en=0), the second tri-state type of the paper's Fig. 3.
	TriInvN
	// TGate is a transmission gate passing in -> out when en=1.
	TGate
	// TGateN passes when en=0.
	TGateN
	// Mux2 drives out = s ? b : a.
	Mux2
)

// Gate is one primitive cell instance.
type Gate struct {
	Kind GateKind
	// In holds the data inputs (1 for Inv/TriInv/TGate, 2 for Nand2/Nor2,
	// 2 for Mux2: a, b).
	In []*Node
	// En is the enable/clock input for tri-state and transmission gates,
	// and the select for Mux2.
	En  *Node
	Out *Node
	// W is the transistor width in multiples of minimum.
	W float64
}

// Circuit is a gate network plus simulation state.
type Circuit struct {
	Tech   arch.Tech
	nodes  []*Node
	gates  []*Gate
	byName map[string]*Node

	// Energy accumulates C*Vdd^2 per node transition.
	Energy float64
	// Now is the current simulation time in seconds.
	Now float64

	queue   eventQueue
	seq     int
	pending map[int]*event // latest scheduled event per node
	// LastChange records the most recent transition time per node.
	LastChange  map[string]float64
	transitions map[string]int
}

// event is a scheduled node value change.
type event struct {
	t    float64
	seq  int
	node *Node
	v    bool
	dead bool
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].t != q[j].t {
		return q[i].t < q[j].t
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)  { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) push(e *event) { *q = append(*q, e); up(*q, len(*q)-1) }
func (q *eventQueue) pop() *event {
	old := *q
	e := old[0]
	n := len(old)
	old[0] = old[n-1]
	*q = old[:n-1]
	if len(*q) > 0 {
		down(*q, 0)
	}
	return e
}

func up(q eventQueue, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !q.Less(i, p) {
			break
		}
		q.Swap(i, p)
		i = p
	}
}

func down(q eventQueue, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(q) && q.Less(l, m) {
			m = l
		}
		if r < len(q) && q.Less(r, m) {
			m = r
		}
		if m == i {
			return
		}
		q.Swap(i, m)
		i = m
	}
}

// New creates an empty circuit on the given technology.
func New(tech arch.Tech) *Circuit {
	return &Circuit{
		Tech:        tech,
		byName:      make(map[string]*Node),
		pending:     make(map[int]*event),
		LastChange:  make(map[string]float64),
		transitions: make(map[string]int),
	}
}

// AddNode creates a named node with the given extra (wire) capacitance.
func (c *Circuit) AddNode(name string, wireCap float64) *Node {
	if _, dup := c.byName[name]; dup {
		panic(fmt.Sprintf("circuit: duplicate node %q", name))
	}
	n := &Node{Name: name, Cap: wireCap, id: len(c.nodes)}
	c.nodes = append(c.nodes, n)
	c.byName[name] = n
	return n
}

// Node returns a node by name.
func (c *Circuit) Node(name string) *Node { return c.byName[name] }

// AddGate instantiates a primitive. Input gate capacitance (scaled by width)
// is added to the input and enable nodes; output diffusion capacitance to
// the output node.
func (c *Circuit) AddGate(kind GateKind, w float64, in []*Node, en, out *Node) *Gate {
	if w <= 0 {
		w = 1
	}
	g := &Gate{Kind: kind, In: in, En: en, Out: out, W: w}
	gi := len(c.gates)
	c.gates = append(c.gates, g)
	cg := c.Tech.CGateMin * w
	for _, n := range in {
		n.Cap += cg
		n.fanout = append(n.fanout, gi)
	}
	if en != nil {
		// Enable typically drives two transistor gates (N and P).
		en.Cap += 2 * cg
		en.fanout = append(en.fanout, gi)
	}
	out.Cap += c.Tech.CDiffMin * w
	return g
}

// Convenience constructors.
func (c *Circuit) Inverter(w float64, in, out *Node) *Gate {
	return c.AddGate(Inv, w, []*Node{in}, nil, out)
}
func (c *Circuit) NAND(w float64, a, b, out *Node) *Gate {
	return c.AddGate(Nand2, w, []*Node{a, b}, nil, out)
}

// delay returns the gate's propagation delay: output resistance (scaled by
// width) times total output load.
func (c *Circuit) delay(g *Gate) float64 {
	r := c.Tech.RonMin / g.W
	switch g.Kind {
	case Nand2, Nor2:
		r *= 1.4 // stacked transistors
	case TriInv, TriInvN:
		r *= 1.3
	case TGate, TGateN:
		// Unbuffered pass chains suffer body effect and degraded swing;
		// the effective resistance is well above a driven inverter's.
		r *= 2.0
	}
	return r * g.Out.Cap
}

// eval computes the gate's output for current input values; drive=false
// means high impedance (keep node value).
func (g *Gate) eval() (v, drive bool) {
	switch g.Kind {
	case Inv:
		return !g.In[0].V, true
	case Nand2:
		return !(g.In[0].V && g.In[1].V), true
	case Nor2:
		return !(g.In[0].V || g.In[1].V), true
	case TriInv:
		if g.En.V {
			return !g.In[0].V, true
		}
		return false, false
	case TriInvN:
		if !g.En.V {
			return !g.In[0].V, true
		}
		return false, false
	case TGate:
		if g.En.V {
			return g.In[0].V, true
		}
		return false, false
	case TGateN:
		if !g.En.V {
			return g.In[0].V, true
		}
		return false, false
	case Mux2:
		if g.En.V {
			return g.In[1].V, true
		}
		return g.In[0].V, true
	}
	return false, false
}

// schedule queues a value change on a node after delay d.
func (c *Circuit) schedule(n *Node, v bool, d float64) {
	t := c.Now + d
	if prev, ok := c.pending[n.id]; ok {
		if prev.v == v {
			return // already heading there
		}
		prev.dead = true // inertial cancellation
		delete(c.pending, n.id)
	}
	if v == n.V {
		return
	}
	c.seq++
	e := &event{t: t, seq: c.seq, node: n, v: v}
	c.pending[n.id] = e
	c.queue.push(e)
}

// Set forces an input node to a value now (no delay, counts energy).
func (c *Circuit) Set(name string, v bool) {
	n := c.byName[name]
	if n == nil {
		panic("circuit: unknown node " + name)
	}
	if n.V == v {
		return
	}
	c.apply(n, v)
}

func (c *Circuit) apply(n *Node, v bool) {
	if n.V == v {
		return
	}
	n.V = v
	c.Energy += n.Cap * c.Tech.Vdd * c.Tech.Vdd / 2 // per-edge: C*V^2/2 average
	c.LastChange[n.Name] = c.Now
	c.transitions[n.Name]++
	for _, gi := range n.fanout {
		g := c.gates[gi]
		v, drive := g.eval()
		if drive {
			c.schedule(g.Out, v, c.delay(g))
		}
	}
}

// Init establishes a consistent initial state: every gate is evaluated and
// outputs settle, then energy and transition counters are cleared. Call
// after construction and initial input Sets, before measuring.
func (c *Circuit) Init() error {
	for _, g := range c.gates {
		v, drive := g.eval()
		if drive {
			c.schedule(g.Out, v, c.delay(g))
		}
	}
	if err := c.Settle(); err != nil {
		return err
	}
	c.ResetEnergy()
	c.transitions = make(map[string]int)
	c.LastChange = make(map[string]float64)
	return nil
}

// Run advances simulation until the event queue drains or the time limit.
func (c *Circuit) Run(until float64) error {
	steps := 0
	for len(c.queue) > 0 {
		e := c.queue.pop()
		if e.dead {
			continue
		}
		delete(c.pending, e.node.id)
		if e.t > until {
			return fmt.Errorf("circuit: simulation exceeded %g s (oscillation?)", until)
		}
		c.Now = e.t
		c.apply(e.node, e.v)
		steps++
		if steps > 1_000_000 {
			return fmt.Errorf("circuit: event limit reached (oscillation)")
		}
	}
	return nil
}

// Settle runs with a generous time bound relative to now.
func (c *Circuit) Settle() error { return c.Run(c.Now + 1e-3) }

// Transitions returns the transition count of a node since construction.
func (c *Circuit) Transitions(name string) int { return c.transitions[name] }

// ResetEnergy zeroes the energy accumulator (e.g. after initialization).
func (c *Circuit) ResetEnergy() { c.Energy = 0 }

// NodeNames returns all node names, sorted.
func (c *Circuit) NodeNames() []string {
	names := make([]string, 0, len(c.nodes))
	for _, n := range c.nodes {
		names = append(names, n.Name)
	}
	sort.Strings(names)
	return names
}

// TransistorCount reports the total transistors in the circuit.
func (c *Circuit) TransistorCount() int {
	total := 0
	for _, g := range c.gates {
		switch g.Kind {
		case Inv:
			total += 2
		case Nand2, Nor2:
			total += 4
		case TriInv, TriInvN:
			total += 4
		case TGate, TGateN:
			total += 2
		case Mux2:
			total += 6
		}
	}
	return total
}
