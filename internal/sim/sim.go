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
// semantics: on every Step, combinational logic settles from the current
// latch outputs and primary inputs, then all latches load their D values
// simultaneously.
type Simulator struct {
	nl    *netlist.Netlist
	topo  []*netlist.Node
	value map[*netlist.Node]bool
	next  map[*netlist.Node]bool
	// Transitions counts value changes per node since Reset.
	Transitions map[string]int
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
		topo:        topo,
		value:       make(map[*netlist.Node]bool, nl.NumNodes()),
		next:        make(map[*netlist.Node]bool),
		Transitions: make(map[string]int, nl.NumNodes()),
	}
	s.Reset()
	return s, nil
}

// Reset sets latches to their initial values ('2'/'3' reset to 0) and
// clears activity counters.
func (s *Simulator) Reset() {
	for n := range s.value {
		delete(s.value, n)
	}
	for _, n := range s.nl.Nodes() {
		if n.Kind == netlist.KindLatch {
			s.value[n] = n.Init == '1'
		}
	}
	s.Transitions = make(map[string]int, s.nl.NumNodes())
	s.cycles = 0
}

// Cycles returns the number of Step calls since Reset.
func (s *Simulator) Cycles() int { return s.cycles }

// Step applies one input vector (keyed by primary-input name), settles the
// combinational logic, captures primary outputs, then clocks all latches.
func (s *Simulator) Step(inputs map[string]bool) (map[string]bool, error) {
	for _, in := range s.nl.Inputs {
		v, ok := inputs[in.Name]
		if !ok {
			return nil, fmt.Errorf("sim: missing value for input %q", in.Name)
		}
		s.set(in, v)
	}
	faninVals := make([]bool, 0, 8)
	for _, n := range s.topo {
		if n.Kind != netlist.KindLogic {
			continue
		}
		faninVals = faninVals[:0]
		for _, f := range n.Fanin {
			faninVals = append(faninVals, s.value[f])
		}
		s.set(n, netlist.EvalCover(n.Cover, faninVals))
	}
	out := make(map[string]bool, len(s.nl.Outputs))
	for _, o := range s.nl.Outputs {
		out[o] = s.value[s.nl.Node(o)]
	}
	for n := range s.next {
		delete(s.next, n)
	}
	for _, n := range s.nl.Nodes() {
		if n.Kind == netlist.KindLatch {
			s.next[n] = s.value[n.Fanin[0]]
		}
	}
	for n, v := range s.next {
		s.set(n, v)
	}
	s.cycles++
	return out, nil
}

func (s *Simulator) set(n *netlist.Node, v bool) {
	if old, seen := s.value[n]; seen && old != v {
		s.Transitions[n.Name]++
	}
	s.value[n] = v
}

// Value returns the current value of the named signal.
func (s *Simulator) Value(name string) (bool, bool) {
	n := s.nl.Node(name)
	if n == nil {
		return false, false
	}
	v, ok := s.value[n]
	return v, ok
}

// Eval evaluates a purely combinational netlist on one input vector.
func Eval(nl *netlist.Netlist, inputs map[string]bool) (map[string]bool, error) {
	if nl.Stats().Latches != 0 {
		return nil, fmt.Errorf("sim: Eval on sequential netlist %s", nl.Name)
	}
	s, err := New(nl)
	if err != nil {
		return nil, err
	}
	return s.Step(inputs)
}

// inputVector builds the input map for minterm m over the named inputs.
func inputVector(names []string, m uint64) map[string]bool {
	in := make(map[string]bool, len(names))
	for i, name := range names {
		in[name] = m&(1<<uint(i)) != 0
	}
	return in
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
// sequential pairs) nVectors random vectors/cycles are applied.
func CheckEquivalent(a, b *netlist.Netlist, exhaustiveLimit, nVectors int, seed int64) error {
	an, bn := InputNames(a), InputNames(b)
	if err := sameNameSet(an, bn); err != nil {
		return fmt.Errorf("sim: input mismatch: %w", err)
	}
	if err := sameNameSet(a.Outputs, b.Outputs); err != nil {
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
	seq := a.Stats().Latches > 0 || b.Stats().Latches > 0
	if !seq && len(an) <= exhaustiveLimit {
		for m := uint64(0); m < 1<<uint(len(an)); m++ {
			if err := compareOnce(sa, sb, inputVector(an, m), 0); err != nil {
				return err
			}
		}
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	for v := 0; v < nVectors; v++ {
		cycle := 0
		if seq {
			cycle = v
		}
		if err := compareOnce(sa, sb, randomVector(an, rng), cycle); err != nil {
			return err
		}
	}
	return nil
}

// compareOnce steps both simulators on one input vector and reports the
// first output, in a's declaration order, on which they disagree.
func compareOnce(sa, sb *Simulator, in map[string]bool, cycle int) error {
	oa, err := sa.Step(in)
	if err != nil {
		return err
	}
	ob, err := sb.Step(in)
	if err != nil {
		return err
	}
	for _, o := range sa.nl.Outputs {
		if oa[o] != ob[o] {
			return &NotEquivalentError{Output: o, Inputs: in, Cycle: cycle, A: oa[o], B: ob[o]}
		}
	}
	return nil
}

func randomVector(names []string, rng *rand.Rand) map[string]bool {
	in := make(map[string]bool, len(names))
	for _, n := range names {
		in[n] = rng.Intn(2) == 1
	}
	return in
}

func sameNameSet(a, b []string) error {
	if len(a) != len(b) {
		return fmt.Errorf("count %d vs %d", len(a), len(b))
	}
	set := make(map[string]bool, len(a))
	for _, n := range a {
		set[n] = true
	}
	for _, n := range b {
		if !set[n] {
			return fmt.Errorf("name %q only on one side", n)
		}
	}
	return nil
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
	names := InputNames(nl)
	in := randomVector(names, rng)
	ones := make(map[string]int, nl.NumNodes())
	for c := 0; c < nCycles; c++ {
		for _, n := range names {
			if rng.Float64() < inputToggle {
				in[n] = !in[n]
			}
		}
		if _, err := s.Step(in); err != nil {
			return nil, err
		}
		for _, n := range nl.Nodes() {
			if v, _ := s.Value(n.Name); v {
				ones[n.Name]++
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
		act.Density[n.Name] = float64(s.Transitions[n.Name]) / float64(nCycles)
		act.StaticProb[n.Name] = float64(ones[n.Name]) / float64(nCycles)
		transitions += int64(s.Transitions[n.Name])
	}
	tr.Add("sim.cycles", int64(nCycles))
	tr.Add("sim.transitions", transitions)
	tr.Add("sim.signals", int64(nl.NumNodes()))
	return act, nil
}
