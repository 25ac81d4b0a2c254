package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"fpgaflow/internal/netlist"
	"fpgaflow/internal/obs"
)

// refSimulator is the map-keyed simulator the ID-indexed one replaced,
// kept as the reference: node values in a map, transitions by name, and a
// node's first assignment not counted as a transition.
type refSimulator struct {
	nl          *netlist.Netlist
	topo        []*netlist.Node
	value       map[*netlist.Node]bool
	transitions map[string]int
}

func newRefSimulator(t *testing.T, nl *netlist.Netlist) *refSimulator {
	t.Helper()
	topo, err := nl.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	s := &refSimulator{nl: nl, topo: topo, value: map[*netlist.Node]bool{}, transitions: map[string]int{}}
	for _, n := range nl.Nodes() {
		if n.Kind == netlist.KindLatch {
			s.value[n] = n.Init == '1'
		}
	}
	return s
}

func (s *refSimulator) step(inputs map[string]bool) map[string]bool {
	for _, in := range s.nl.Inputs {
		s.set(in, inputs[in.Name])
	}
	for _, n := range s.topo {
		if n.Kind != netlist.KindLogic {
			continue
		}
		var fin []bool
		for _, f := range n.Fanin {
			fin = append(fin, s.value[f])
		}
		s.set(n, netlist.EvalCover(n.Cover, fin))
	}
	out := make(map[string]bool, len(s.nl.Outputs))
	for _, o := range s.nl.Outputs {
		out[o] = s.value[s.nl.Node(o)]
	}
	next := map[*netlist.Node]bool{}
	for _, n := range s.nl.Nodes() {
		if n.Kind == netlist.KindLatch {
			next[n] = s.value[n.Fanin[0]]
		}
	}
	for n, v := range next {
		s.set(n, v)
	}
	return out
}

func (s *refSimulator) set(n *netlist.Node, v bool) {
	if old, seen := s.value[n]; seen && old != v {
		s.transitions[n.Name]++
	}
	s.value[n] = v
}

// refEstimateActivity is EstimateActivity on the reference simulator: the
// same random stream, per-name densities and static probabilities.
func refEstimateActivity(t *testing.T, nl *netlist.Netlist, nCycles int, inputToggle float64, seed int64) (*Activity, int64) {
	t.Helper()
	s := newRefSimulator(t, nl)
	rng := rand.New(rand.NewSource(seed))
	in := map[string]bool{}
	for _, name := range InputNames(nl) {
		in[name] = rng.Intn(2) == 1
	}
	ones := map[string]int{}
	for c := 0; c < nCycles; c++ {
		for _, name := range InputNames(nl) {
			if rng.Float64() < inputToggle {
				in[name] = !in[name]
			}
		}
		s.step(in)
		for _, n := range nl.Nodes() {
			if s.value[n] {
				ones[n.Name]++
			}
		}
	}
	act := &Activity{Density: map[string]float64{}, StaticProb: map[string]float64{}, Cycles: nCycles}
	var transitions int64
	for _, n := range nl.Nodes() {
		act.Density[n.Name] = float64(s.transitions[n.Name]) / float64(nCycles)
		act.StaticProb[n.Name] = float64(ones[n.Name]) / float64(nCycles)
		transitions += int64(s.transitions[n.Name])
	}
	return act, transitions
}

// randomNetlist builds a random valid netlist with nIn inputs and nGates
// logic nodes; nLatch latches close feedback loops when sequential.
func randomNetlist(t *testing.T, rng *rand.Rand, nIn, nLatch, nGates int) *netlist.Netlist {
	t.Helper()
	nl := netlist.New("r")
	var pool, latches []*netlist.Node
	for i := 0; i < nIn; i++ {
		in, _ := nl.AddInput(fmt.Sprintf("i%d", i))
		pool = append(pool, in)
	}
	for i := 0; i < nLatch; i++ {
		q, _ := nl.AddLatch(fmt.Sprintf("q%d", i), nil, "0123"[rng.Intn(4)], "clk")
		pool = append(pool, q)
		latches = append(latches, q)
	}
	for i := 0; i < nGates; i++ {
		k := 1 + rng.Intn(min(4, len(pool)))
		var fanin []*netlist.Node
		for _, j := range rng.Perm(len(pool))[:k] {
			fanin = append(fanin, pool[j])
		}
		cover := netlist.Cover{Value: netlist.LitOne}
		if rng.Intn(5) == 0 {
			cover.Value = netlist.LitZero
		}
		for c := 1 + rng.Intn(3); c > 0; c-- {
			cube := make(netlist.Cube, k)
			for j := range cube {
				cube[j] = []netlist.LitValue{netlist.LitZero, netlist.LitOne, netlist.LitDC}[rng.Intn(3)]
			}
			cover.Cubes = append(cover.Cubes, cube)
		}
		g, err := nl.AddLogic(fmt.Sprintf("g%d", i), fanin, cover)
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, g)
	}
	// A latch may read another latch directly (a shift register) or
	// itself (a hold).
	for _, q := range latches {
		q.Fanin = []*netlist.Node{pool[nIn+rng.Intn(nLatch+nGates)]}
	}
	for i := 0; i < 3; i++ {
		if name := pool[len(pool)-1-i].Name; !nl.IsOutput(name) {
			nl.MarkOutput(name)
		}
	}
	if err := nl.Check(); err != nil {
		t.Fatal(err)
	}
	return nl
}

// shiftBLIF is a shift register whose latches are declared source first,
// so loading them one by one instead of simultaneously would shift a bit
// through every stage in one cycle.
const shiftBLIF = `
.model shift
.inputs d
.outputs q3
.latch d q0 re clk 0
.latch q0 q1 re clk 1
.latch q1 q2 re clk 0
.latch q2 q3 re clk 1
.end
`

// TestSimulatorMatchesMapReference steps the ID-indexed simulator and the
// map-keyed reference through the same random vectors on random
// combinational and sequential netlists and on the shift register and
// counter, comparing every cycle's outputs, every node's value and
// transition count, and EstimateActivity's densities, static
// probabilities and transition total.
func TestSimulatorMatchesMapReference(t *testing.T) {
	for _, text := range []string{shiftBLIF, counterBLIF} {
		nl, err := netlist.ParseBLIF(text)
		if err != nil {
			t.Fatal(err)
		}
		matchReference(t, nl, rand.New(rand.NewSource(1)), nl.Name)
	}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nLatch := 0
		if seed%2 == 1 {
			nLatch = 1 + rng.Intn(4)
		}
		nl := randomNetlist(t, rng, 1+rng.Intn(6), nLatch, 3+rng.Intn(30))
		matchReference(t, nl, rng, fmt.Sprintf("seed %d", seed))
	}
}

func matchReference(t *testing.T, nl *netlist.Netlist, rng *rand.Rand, name string) {
	t.Helper()
	s, err := New(nl)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefSimulator(t, nl)
	for cycle := 0; cycle < 60; cycle++ {
		in := map[string]bool{}
		for _, name := range InputNames(nl) {
			in[name] = rng.Intn(2) == 1
		}
		got, err := s.Step(in)
		if err != nil {
			t.Fatal(err)
		}
		want := ref.step(in)
		for _, o := range nl.Outputs {
			if got[o] != want[o] {
				t.Fatalf("%s cycle %d: output %s = %v, reference %v", name, cycle, o, got[o], want[o])
			}
		}
		for _, n := range nl.Nodes() {
			if v, _ := s.Value(n.Name); v != ref.value[n] || s.transitions[n.ID()] != ref.transitions[n.Name] {
				t.Fatalf("%s cycle %d: %s = %v after %d transitions, reference %v after %d",
					name, cycle, n.Name, v, s.transitions[n.ID()], ref.value[n], ref.transitions[n.Name])
			}
		}
	}
	seed := rng.Int63()
	tr := obs.New("sim")
	act, err := EstimateActivity(nl, 200, 0.3, seed, tr)
	if err != nil {
		t.Fatal(err)
	}
	wantAct, wantTransitions := refEstimateActivity(t, nl, 200, 0.3, seed)
	if got := tr.Counter("sim.transitions").Value(); got != wantTransitions {
		t.Fatalf("%s: sim.transitions %d, reference %d", name, got, wantTransitions)
	}
	for _, n := range nl.Nodes() {
		if act.Density[n.Name] != wantAct.Density[n.Name] || act.StaticProb[n.Name] != wantAct.StaticProb[n.Name] {
			t.Fatalf("%s: %s activity %v/%v, reference %v/%v", name, n.Name,
				act.Density[n.Name], act.StaticProb[n.Name], wantAct.Density[n.Name], wantAct.StaticProb[n.Name])
		}
	}
}
