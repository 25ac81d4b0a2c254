// Package sim provides gate-level functional simulation of netlists:
// cycle-accurate evaluation, combinational and sequential equivalence
// checking, and switching-activity extraction for the power model.
package sim

import (
	"fmt"
	"math/rand"

	"fpgaflow/internal/netlist"
	"fpgaflow/internal/obs"
)

// Simulator evaluates a netlist cycle by cycle. Latches follow BLIF
// semantics: on every step, combinational logic settles from the current
// latch outputs and primary inputs, then all latches load their D values
// simultaneously. Its state is indexed by node ID, inputs and outputs by
// their position in nl.Inputs and nl.Outputs.
type Simulator struct {
	nl      *netlist.Netlist
	logic   []*netlist.Node // logic nodes in topological order
	latches []*netlist.Node
	outs    []int // node ID of each primary output
	value   []bool
	next    []bool // latch D values, by latch position
	out     []bool // primary outputs captured by the last step
	fin     []bool // fanin values of the node being evaluated
	// transitions counts value changes per node. A node's first
	// assignment is not a change: inputs and logic are first assigned by
	// the first step, latches by New.
	transitions []int
	cycles      int
}

// New builds a simulator; the netlist must pass Check.
func New(nl *netlist.Netlist) (*Simulator, error) {
	topo, err := nl.TopoSort()
	if err != nil {
		return nil, err
	}
	s := &Simulator{
		nl:          nl,
		outs:        make([]int, len(nl.Outputs)),
		value:       make([]bool, nl.NumNodes()),
		out:         make([]bool, len(nl.Outputs)),
		transitions: make([]int, nl.NumNodes()),
	}
	for _, n := range topo {
		if n.Kind == netlist.KindLogic {
			s.logic = append(s.logic, n)
		}
	}
	// Latches power up at their initial value ('2'/'3' start at 0).
	for _, n := range nl.Nodes() {
		if n.Kind == netlist.KindLatch {
			s.latches = append(s.latches, n)
			s.value[n.ID()] = n.Init == '1'
		}
	}
	s.next = make([]bool, len(s.latches))
	for i, o := range nl.Outputs {
		n := nl.Node(o)
		if n == nil {
			return nil, fmt.Errorf("sim: output %q has no driver", o)
		}
		s.outs[i] = n.ID()
	}
	return s, nil
}

// Step applies one input vector (keyed by primary-input name), settles the
// combinational logic, captures primary outputs, then clocks all latches.
func (s *Simulator) Step(inputs map[string]bool) (map[string]bool, error) {
	vec := make([]bool, len(s.nl.Inputs))
	for i, in := range s.nl.Inputs {
		v, ok := inputs[in.Name]
		if !ok {
			return nil, fmt.Errorf("sim: missing value for input %q", in.Name)
		}
		vec[i] = v
	}
	s.step(vec)
	out := make(map[string]bool, len(s.outs))
	for i, o := range s.nl.Outputs {
		out[o] = s.out[i]
	}
	return out, nil
}

// step is Step by position: in[i] drives nl.Inputs[i], and s.out[i]
// receives nl.Outputs[i].
func (s *Simulator) step(in []bool) {
	settled := s.cycles > 0 // inputs and logic hold last step's values
	for i, n := range s.nl.Inputs {
		s.set(n.ID(), in[i], settled)
	}
	for _, n := range s.logic {
		s.fin = s.fin[:0]
		for _, f := range n.Fanin {
			s.fin = append(s.fin, s.value[f.ID()])
		}
		s.set(n.ID(), netlist.EvalCover(n.Cover, s.fin), settled)
	}
	for i, id := range s.outs {
		s.out[i] = s.value[id]
	}
	for i, n := range s.latches {
		s.next[i] = s.value[n.Fanin[0].ID()]
	}
	for i, n := range s.latches {
		s.set(n.ID(), s.next[i], true)
	}
	s.cycles++
}

// set assigns node id, counting a change when the node held a value.
func (s *Simulator) set(id int, v, assigned bool) {
	if assigned && s.value[id] != v {
		s.transitions[id]++
	}
	s.value[id] = v
}

// Value returns the current value of the named signal, and whether it has
// been assigned yet.
func (s *Simulator) Value(name string) (bool, bool) {
	n := s.nl.Node(name)
	if n == nil || n.Kind != netlist.KindLatch && s.cycles == 0 {
		return false, false
	}
	return s.value[n.ID()], true
}

// Eval evaluates a purely combinational netlist on one input vector.
func Eval(nl *netlist.Netlist, inputs map[string]bool) (map[string]bool, error) {
	s, err := New(nl)
	if err != nil {
		return nil, err
	}
	if len(s.latches) != 0 {
		return nil, fmt.Errorf("sim: Eval on sequential netlist %s", nl.Name)
	}
	return s.Step(inputs)
}

// InputNames returns the primary-input names in declaration order.
func InputNames(nl *netlist.Netlist) []string {
	names := make([]string, len(nl.Inputs))
	for i, in := range nl.Inputs {
		names[i] = in.Name
	}
	return names
}

// NotEquivalentError describes a distinguishing input found by an
// equivalence check.
type NotEquivalentError struct {
	Output string
	Inputs map[string]bool
	Cycle  int
	A, B   bool
}

func (e *NotEquivalentError) Error() string {
	return fmt.Sprintf("sim: output %q differs (cycle %d): %v vs %v on %v",
		e.Output, e.Cycle, e.A, e.B, e.Inputs)
}

// CheckEquivalent verifies that two netlists with identical input/output
// names compute the same function. Combinational pairs with at most
// exhaustiveLimit inputs are checked exhaustively; otherwise (and for
// sequential pairs) nVectors random vectors/cycles are applied. A check
// that would apply no vector, or enumerate 2^64 or more, is an error.
func CheckEquivalent(a, b *netlist.Netlist, exhaustiveLimit, nVectors int, seed int64) error {
	an := InputNames(a)
	inPerm, err := positions(an, InputNames(b))
	if err != nil {
		return fmt.Errorf("sim: input mismatch: %w", err)
	}
	outPerm, err := positions(a.Outputs, b.Outputs)
	if err != nil {
		return fmt.Errorf("sim: output mismatch: %w", err)
	}
	sa, err := New(a)
	if err != nil {
		return err
	}
	sb, err := New(b)
	if err != nil {
		return err
	}
	// One simulator per side steps every vector. A combinational netlist
	// settles from its inputs alone, so reusing it is the same as a fresh
	// Eval per vector; a sequential one carries its latch state on.
	ina, inb := make([]bool, len(an)), make([]bool, len(an))
	compare := func(cycle int) error {
		for i, j := range inPerm {
			inb[j] = ina[i]
		}
		sa.step(ina)
		sb.step(inb)
		for i, j := range outPerm {
			if sa.out[i] != sb.out[j] {
				in := make(map[string]bool, len(an))
				for k, name := range an {
					in[name] = ina[k]
				}
				return &NotEquivalentError{Output: a.Outputs[i], Inputs: in, Cycle: cycle, A: sa.out[i], B: sb.out[j]}
			}
		}
		return nil
	}
	seq := len(sa.latches) > 0 || len(sb.latches) > 0
	if !seq && len(an) <= exhaustiveLimit {
		if len(an) >= 64 {
			return fmt.Errorf("sim: exhaustive check over %d inputs is infeasible", len(an))
		}
		for m := uint64(0); m < 1<<uint(len(an)); m++ {
			for i := range ina {
				ina[i] = m&(1<<uint(i)) != 0
			}
			if err := compare(0); err != nil {
				return err
			}
		}
		return nil
	}
	if nVectors <= 0 {
		return fmt.Errorf("sim: %d random vectors check nothing", nVectors)
	}
	rng := rand.New(rand.NewSource(seed))
	for v := 0; v < nVectors; v++ {
		for i := range ina {
			ina[i] = rng.Intn(2) == 1
		}
		cycle := 0
		if seq {
			cycle = v
		}
		if err := compare(cycle); err != nil {
			return err
		}
	}
	return nil
}

// positions returns, for each name in from, its index in to. It fails
// unless both lists have the same length and every name in from is in to.
func positions(from, to []string) ([]int, error) {
	if len(from) != len(to) {
		return nil, fmt.Errorf("count %d vs %d", len(from), len(to))
	}
	index := make(map[string]int, len(to))
	for i, n := range to {
		index[n] = i
	}
	perm := make([]int, len(from))
	for i, n := range from {
		j, ok := index[n]
		if !ok {
			return nil, fmt.Errorf("name %q only on one side", n)
		}
		perm[i] = j
	}
	return perm, nil
}

// Activity holds per-signal switching statistics from a random simulation.
type Activity struct {
	// Density is the average transitions per cycle per signal name.
	Density map[string]float64
	// StaticProb is the fraction of cycles each signal was 1.
	StaticProb map[string]float64
	Cycles     int
}

// EstimateActivity runs nCycles of random inputs and returns per-signal
// transition densities and static probabilities. Input signals toggle with
// probability inputToggle each cycle (0.5 gives uncorrelated inputs).
// Simulation counters (sim.cycles, sim.transitions, sim.signals) report to
// tr (nil disables reporting).
func EstimateActivity(nl *netlist.Netlist, nCycles int, inputToggle float64, seed int64, tr *obs.Trace) (*Activity, error) {
	s, err := New(nl)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	in := make([]bool, len(nl.Inputs))
	for i := range in {
		in[i] = rng.Intn(2) == 1
	}
	ones := make([]int, nl.NumNodes())
	for c := 0; c < nCycles; c++ {
		for i := range in {
			if rng.Float64() < inputToggle {
				in[i] = !in[i]
			}
		}
		s.step(in)
		for id, v := range s.value {
			if v {
				ones[id]++
			}
		}
	}
	act := &Activity{
		Density:    make(map[string]float64, nl.NumNodes()),
		StaticProb: make(map[string]float64, nl.NumNodes()),
		Cycles:     nCycles,
	}
	var transitions int64
	for _, n := range nl.Nodes() {
		t := s.transitions[n.ID()]
		act.Density[n.Name] = float64(t) / float64(nCycles)
		act.StaticProb[n.Name] = float64(ones[n.ID()]) / float64(nCycles)
		transitions += int64(t)
	}
	tr.Add("sim.cycles", int64(nCycles))
	tr.Add("sim.transitions", transitions)
	tr.Add("sim.signals", int64(nl.NumNodes()))
	return act, nil
}
