package techmap

import (
	"math/rand"
	"testing"

	"fpgaflow/internal/logic"
	"fpgaflow/internal/netlist"
	"fpgaflow/internal/sim"
)

func and2() netlist.Cover {
	return netlist.Cover{Cubes: []netlist.Cube{netlist.Cube("11")}, Value: netlist.LitOne}
}
func or2() netlist.Cover {
	return netlist.Cover{Cubes: []netlist.Cube{netlist.Cube("1-"), netlist.Cube("-1")}, Value: netlist.LitOne}
}
func xor2() netlist.Cover {
	return netlist.Cover{Cubes: []netlist.Cube{netlist.Cube("10"), netlist.Cube("01")}, Value: netlist.LitOne}
}

// buildChain makes a linear chain of n 2-input gates over two rotating inputs.
func buildChain(t *testing.T, n int) *netlist.Netlist {
	t.Helper()
	nl := netlist.New("chain")
	a, _ := nl.AddInput("a")
	b, _ := nl.AddInput("b")
	cur := a
	covers := []func() netlist.Cover{and2, or2, xor2}
	for i := 0; i < n; i++ {
		g, err := nl.AddLogic(gname(i), []*netlist.Node{cur, b}, covers[i%3]())
		if err != nil {
			t.Fatal(err)
		}
		cur = g
	}
	nl.MarkOutput(cur.Name)
	return nl
}

func gname(i int) string { return "g" + string(rune('a'+i/26)) + string(rune('a'+i%26)) }

func buildRandom2Bounded(t *testing.T, seed int64, nIn, nGates int) *netlist.Netlist {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nl := netlist.New("r2")
	var pool []*netlist.Node
	for i := 0; i < nIn; i++ {
		in, _ := nl.AddInput("i" + gname(i))
		pool = append(pool, in)
	}
	covers := []func() netlist.Cover{and2, or2, xor2}
	for i := 0; i < nGates; i++ {
		x := pool[rng.Intn(len(pool))]
		y := pool[rng.Intn(len(pool))]
		for y == x {
			y = pool[rng.Intn(len(pool))]
		}
		g, err := nl.AddLogic(gname(i), []*netlist.Node{x, y}, covers[rng.Intn(3)]())
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, g)
	}
	for i := 0; i < 3; i++ {
		nl.MarkOutput(pool[len(pool)-1-i].Name)
	}
	return nl
}

func checkMapped(t *testing.T, ref *netlist.Netlist, res *Result, k int, seed int64) {
	t.Helper()
	for _, n := range res.Netlist.Nodes() {
		if n.Kind == netlist.KindLogic && len(n.Fanin) > k {
			t.Fatalf("LUT %q has %d inputs > K=%d", n.Name, len(n.Fanin), k)
		}
	}
	if err := sim.CheckEquivalent(ref, res.Netlist, 10, 500, seed); err != nil {
		t.Fatalf("mapping changed function: %v", err)
	}
}

func TestFlowMapChainDepth(t *testing.T) {
	// A 9-gate chain over 2 live signals: each 4-LUT can absorb several
	// levels; depth must shrink well below 9 and function must hold.
	nl := buildChain(t, 9)
	ref := nl.Clone()
	res, err := FlowMap(nl, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkMapped(t, ref, res, 4, 1)
	if res.Depth >= 9 {
		t.Errorf("FlowMap did not reduce depth: %d", res.Depth)
	}
	if res.Depth > 4 {
		t.Errorf("chain depth %d too deep for K=4", res.Depth)
	}
}

func TestFlowMapSingleGate(t *testing.T) {
	nl := netlist.New("g")
	a, _ := nl.AddInput("a")
	b, _ := nl.AddInput("b")
	nl.AddLogic("o", []*netlist.Node{a, b}, xor2())
	nl.MarkOutput("o")
	ref := nl.Clone()
	res, err := FlowMap(nl, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.LUTs != 1 || res.Depth != 1 {
		t.Errorf("LUTs=%d depth=%d, want 1/1", res.LUTs, res.Depth)
	}
	checkMapped(t, ref, res, 4, 2)
}

// TestMappersRejectForeignFanin gives a node a fanin from a clone of its
// netlist: same name and same ID as the netlist's own node, but another
// network's. Both mappers must refuse it.
func TestMappersRejectForeignFanin(t *testing.T) {
	nl := netlist.New("f")
	a, _ := nl.AddInput("a")
	nl.AddInput("b")
	foreign := nl.Clone().Node("b")
	nl.AddLogic("o", []*netlist.Node{a, foreign}, xor2())
	nl.MarkOutput("o")
	if _, err := FlowMap(nl, 4); err == nil {
		t.Error("FlowMap accepted a foreign fanin")
	}
	if _, err := MapGreedy(nl, 4); err == nil {
		t.Error("MapGreedy accepted a foreign fanin")
	}
}

func TestFlowMapRejectsWideNodes(t *testing.T) {
	nl := netlist.New("w")
	var fanin []*netlist.Node
	for i := 0; i < 6; i++ {
		in, _ := nl.AddInput("i" + gname(i))
		fanin = append(fanin, in)
	}
	cube := make(netlist.Cube, 6)
	for i := range cube {
		cube[i] = netlist.LitOne
	}
	nl.AddLogic("o", fanin, netlist.Cover{Cubes: []netlist.Cube{cube}, Value: netlist.LitOne})
	nl.MarkOutput("o")
	if _, err := FlowMap(nl, 4); err == nil {
		t.Fatal("6-input node accepted at K=4")
	}
}

func TestFlowMapRandomEquivalence(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		for _, k := range []int{3, 4, 5} {
			nl := buildRandom2Bounded(t, seed, 6, 40)
			ref := nl.Clone()
			res, err := FlowMap(nl, k)
			if err != nil {
				t.Fatalf("seed %d K=%d: %v", seed, k, err)
			}
			checkMapped(t, ref, res, k, seed)
		}
	}
}

func TestFlowMapSequential(t *testing.T) {
	// 3-bit LFSR: x0 <- x2, x1 <- x0 xor x2, x2 <- x1.
	nl := netlist.New("lfsr")
	q0, _ := nl.AddLatch("q0", nil, '1', "clk")
	q1, _ := nl.AddLatch("q1", nil, '0', "clk")
	q2, _ := nl.AddLatch("q2", nil, '0', "clk")
	x, _ := nl.AddLogic("x", []*netlist.Node{q0, q2}, xor2())
	q0.Fanin = []*netlist.Node{q2}
	q1.Fanin = []*netlist.Node{x}
	q2.Fanin = []*netlist.Node{q1}
	nl.MarkOutput("q2")
	if err := nl.Check(); err != nil {
		t.Fatal(err)
	}
	ref := nl.Clone()
	res, err := FlowMap(nl, 4)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Netlist.Stats()
	if st.Latches != 3 {
		t.Fatalf("latches = %d, want 3", st.Latches)
	}
	if err := sim.CheckEquivalent(ref, res.Netlist, 10, 100, 3); err != nil {
		t.Fatal(err)
	}
}

func TestFlowMapDepthOptimalVsGreedy(t *testing.T) {
	// FlowMap is depth-optimal: on every random instance its depth must be
	// <= the greedy mapper's depth.
	for seed := int64(10); seed < 16; seed++ {
		nl := buildRandom2Bounded(t, seed, 8, 60)
		fm, err := FlowMap(nl.Clone(), 4)
		if err != nil {
			t.Fatal(err)
		}
		gr, err := MapGreedy(nl.Clone(), 4)
		if err != nil {
			t.Fatal(err)
		}
		if fm.Depth > gr.Depth {
			t.Errorf("seed %d: FlowMap depth %d > greedy depth %d", seed, fm.Depth, gr.Depth)
		}
	}
}

func TestMapGreedyEquivalence(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		nl := buildRandom2Bounded(t, seed, 6, 40)
		ref := nl.Clone()
		res, err := MapGreedy(nl, 4)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkMapped(t, ref, res, 4, seed)
	}
}

func TestMapConstantNode(t *testing.T) {
	nl := netlist.New("k")
	a, _ := nl.AddInput("a")
	one, _ := nl.AddLogic("one", nil, netlist.Cover{Cubes: []netlist.Cube{{}}, Value: netlist.LitOne})
	nl.AddLogic("o", []*netlist.Node{a, one}, and2())
	nl.MarkOutput("o")
	ref := nl.Clone()
	res, err := FlowMap(nl, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkMapped(t, ref, res, 4, 4)
}

func TestFlowMapAfterDecompose(t *testing.T) {
	// Full pre-mapping pipeline on a wide-node netlist.
	nl := netlist.New("wide")
	var fanin []*netlist.Node
	for i := 0; i < 9; i++ {
		in, _ := nl.AddInput("i" + gname(i))
		fanin = append(fanin, in)
	}
	// Majority-ish: at least positions 0,1 or 3,4,5 or 6,7,8 set.
	nl.AddLogic("o", fanin, netlist.Cover{Cubes: []netlist.Cube{
		netlist.Cube("11-------"),
		netlist.Cube("---111---"),
		netlist.Cube("------111"),
	}, Value: netlist.LitOne})
	nl.MarkOutput("o")
	ref := nl.Clone()
	if err := logic.Decompose(nl); err != nil {
		t.Fatal(err)
	}
	res, err := FlowMap(nl, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkMapped(t, ref, res, 4, 5)
	if res.Depth > 3 {
		t.Errorf("depth %d for 9-input 3-cube SOP at K=4", res.Depth)
	}
}

func TestFlowMapOutputIsInput(t *testing.T) {
	// An output directly driven by an input needs no LUT.
	nl := netlist.New("pass")
	nl.AddInput("a")
	nl.MarkOutput("a")
	res, err := FlowMap(nl, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.LUTs != 0 {
		t.Errorf("LUTs = %d for wire-through", res.LUTs)
	}
}
