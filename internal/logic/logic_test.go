package logic

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"fpgaflow/internal/netlist"
	"fpgaflow/internal/sim"
)

func ttOf(c netlist.Cover, k int) []uint64 {
	return slices.Clone(new(qmScratch).truthTableOfCover(c, k))
}

func minimizeCover(c netlist.Cover, k int) netlist.Cover { return new(qmScratch).minimizeCover(c, k) }

func sameFunction(a, b netlist.Cover, k int) bool {
	ta, tb := ttOf(a, k), ttOf(b, k)
	for i := range ta {
		if ta[i] != tb[i] {
			return false
		}
	}
	return true
}

func TestMinimizeXor(t *testing.T) {
	c := netlist.Cover{Cubes: []netlist.Cube{netlist.Cube("01"), netlist.Cube("10")}, Value: netlist.LitOne}
	m := minimizeCover(c, 2)
	if len(m.Cubes) != 2 {
		t.Fatalf("XOR minimized to %d cubes", len(m.Cubes))
	}
	if !sameFunction(c, m, 2) {
		t.Fatal("function changed")
	}
}

func TestMinimizeMergesAdjacent(t *testing.T) {
	// f = a (independent of b): minterms 01,11 over (a,b) with a = bit 0.
	c := netlist.Cover{Cubes: []netlist.Cube{netlist.Cube("10"), netlist.Cube("11")}, Value: netlist.LitOne}
	m := minimizeCover(c, 2)
	if len(m.Cubes) != 1 || m.Cubes[0][0] != netlist.LitOne || m.Cubes[0][1] != netlist.LitDC {
		t.Fatalf("got %v", m.Cubes)
	}
}

func TestMinimizeConstants(t *testing.T) {
	zero := minimizeCover(netlist.Cover{Value: netlist.LitOne}, 3)
	if len(zero.Cubes) != 0 {
		t.Errorf("const0: %v", zero.Cubes)
	}
	all := netlist.Cover{Value: netlist.LitOne}
	for m := 0; m < 8; m++ {
		cube := make(netlist.Cube, 3)
		for i := 0; i < 3; i++ {
			if m&(1<<i) != 0 {
				cube[i] = netlist.LitOne
			} else {
				cube[i] = netlist.LitZero
			}
		}
		all.Cubes = append(all.Cubes, cube)
	}
	one := minimizeCover(all, 3)
	if len(one.Cubes) != 1 {
		t.Errorf("const1 cubes: %v", one.Cubes)
	}
	for _, lit := range one.Cubes[0] {
		if lit != netlist.LitDC {
			t.Errorf("const1 cube not all-DC: %v", one.Cubes[0])
		}
	}
}

func TestMinimizeOffsetCover(t *testing.T) {
	// NAND given as off-set.
	c := netlist.Cover{Cubes: []netlist.Cube{netlist.Cube("11")}, Value: netlist.LitZero}
	m := minimizeCover(c, 2)
	if !m.OnSet() {
		t.Fatal("minimized cover should be on-set")
	}
	if !sameFunction(c, m, 2) {
		t.Fatal("NAND function changed")
	}
}

// TestMinimizePreservesFunction is the core property test: QM + greedy
// selection must be exact on random functions.
func TestMinimizePreservesFunction(t *testing.T) {
	for _, k := range []int{1, 2, 3, 4, 5} {
		k := k
		f := func(raw uint32) bool {
			rows := 1 << uint(k)
			tt := make([]bool, rows)
			for i := 0; i < rows; i++ {
				tt[i] = raw&(1<<uint(i%32)) != 0
			}
			orig := netlist.CoverFromTruthTable(tt, k)
			m := minimizeCover(orig, k)
			if !sameFunction(orig, m, k) {
				return false
			}
			// Never more cubes than minterms.
			return len(m.Cubes) <= len(orig.Cubes) || len(orig.Cubes) == 0
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(int64(k)))}); err != nil {
			t.Errorf("k=%d: %v", k, err)
		}
	}
}

func TestReduceWidePreservesFunction(t *testing.T) {
	// 12 inputs forces the wide path; use a sparse random cover.
	rng := rand.New(rand.NewSource(11))
	const k = 12
	var c netlist.Cover
	c.Value = netlist.LitOne
	for i := 0; i < 30; i++ {
		cube := make(netlist.Cube, k)
		for j := range cube {
			switch rng.Intn(3) {
			case 0:
				cube[j] = netlist.LitZero
			case 1:
				cube[j] = netlist.LitOne
			default:
				cube[j] = netlist.LitDC
			}
		}
		c.Cubes = append(c.Cubes, cube)
	}
	m := minimizeCover(c, k)
	if len(m.Cubes) > len(c.Cubes) {
		t.Fatalf("wide reduction grew cover: %d -> %d", len(c.Cubes), len(m.Cubes))
	}
	in := make([]bool, k)
	for v := 0; v < 2000; v++ {
		for i := range in {
			in[i] = rng.Intn(2) == 1
		}
		if netlist.EvalCover(c, in) != netlist.EvalCover(m, in) {
			t.Fatalf("wide reduction changed function on %v", in)
		}
	}
}

func TestLiterals(t *testing.T) {
	c := netlist.Cover{Cubes: []netlist.Cube{netlist.Cube("1-0"), netlist.Cube("--1")}, Value: netlist.LitOne}
	if got := Literals(c); got != 3 {
		t.Errorf("Literals = %d, want 3", got)
	}
}

func buildRandomNetlist(t *testing.T, seed int64, nInputs, nNodes int) *netlist.Netlist {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nl := netlist.New("rand")
	var pool []*netlist.Node
	for i := 0; i < nInputs; i++ {
		in, err := nl.AddInput(nameOf("i", i))
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, in)
	}
	for i := 0; i < nNodes; i++ {
		k := 1 + rng.Intn(3)
		fanin := make([]*netlist.Node, 0, k)
		seen := map[*netlist.Node]bool{}
		for len(fanin) < k {
			c := pool[rng.Intn(len(pool))]
			if !seen[c] {
				seen[c] = true
				fanin = append(fanin, c)
			}
		}
		rows := 1 << uint(len(fanin))
		tt := make([]bool, rows)
		nonConst := false
		for j := range tt {
			tt[j] = rng.Intn(2) == 1
		}
		for j := 1; j < rows; j++ {
			if tt[j] != tt[0] {
				nonConst = true
			}
		}
		if !nonConst {
			tt[0] = !tt[0]
		}
		n, err := nl.AddLogic(nameOf("n", i), fanin, netlist.CoverFromTruthTable(tt, len(fanin)))
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, n)
	}
	// Mark the last few nodes as outputs.
	for i := 0; i < 4 && i < nNodes; i++ {
		nl.MarkOutput(pool[len(pool)-1-i].Name)
	}
	if err := nl.Check(); err != nil {
		t.Fatal(err)
	}
	return nl
}

func nameOf(p string, i int) string {
	return p + string(rune('a'+i/26)) + string(rune('a'+i%26))
}

func TestOptimizePreservesFunction(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		nl := buildRandomNetlist(t, seed, 6, 25)
		ref := nl.Clone()
		if _, err := Optimize(nl); err != nil {
			t.Fatalf("seed %d: Optimize: %v", seed, err)
		}
		if err := sim.CheckEquivalent(ref, nl, 8, 500, seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		after := nl.Stats()
		before := ref.Stats()
		if after.Logic > before.Logic {
			t.Errorf("seed %d: optimization grew netlist %d -> %d", seed, before.Logic, after.Logic)
		}
	}
}

func TestPropagateConstants(t *testing.T) {
	nl := netlist.New("k")
	a, _ := nl.AddInput("a")
	one, _ := nl.AddLogic("one", nil, netlist.Cover{Cubes: []netlist.Cube{{}}, Value: netlist.LitOne})
	// out = a AND one -> must become buffer of a after const prop + simplify.
	if _, err := nl.AddLogic("out", []*netlist.Node{a, one},
		netlist.Cover{Cubes: []netlist.Cube{netlist.Cube("11")}, Value: netlist.LitOne}); err != nil {
		t.Fatal(err)
	}
	nl.MarkOutput("out")
	if err := PropagateConstants(nl); err != nil {
		t.Fatal(err)
	}
	out := nl.Node("out")
	if len(out.Fanin) != 1 || out.Fanin[0] != a {
		t.Fatalf("const not propagated: fanin=%v", out.Fanin)
	}
	if !out.IsBuffer() {
		t.Fatalf("expected buffer, cover=%v", out.Cover)
	}
}

func TestRemoveBuffers(t *testing.T) {
	nl := netlist.New("b")
	a, _ := nl.AddInput("a")
	buf, _ := nl.AddLogic("buf", []*netlist.Node{a},
		netlist.Cover{Cubes: []netlist.Cube{netlist.Cube("1")}, Value: netlist.LitOne})
	if _, err := nl.AddLogic("out", []*netlist.Node{buf},
		netlist.Cover{Cubes: []netlist.Cube{netlist.Cube("0")}, Value: netlist.LitOne}); err != nil {
		t.Fatal(err)
	}
	nl.MarkOutput("out")
	if removed := RemoveBuffers(nl); removed != 1 {
		t.Fatalf("removed %d buffers", removed)
	}
	if nl.Node("out").Fanin[0] != a {
		t.Fatal("use not redirected to source")
	}
}

func TestRemoveBuffersKeepsOutputName(t *testing.T) {
	nl := netlist.New("b")
	a, _ := nl.AddInput("a")
	nl.AddLogic("o", []*netlist.Node{a},
		netlist.Cover{Cubes: []netlist.Cube{netlist.Cube("1")}, Value: netlist.LitOne})
	nl.MarkOutput("o")
	RemoveBuffers(nl)
	if nl.Node("o") == nil {
		t.Fatal("output buffer removed, output signal lost")
	}
}

func TestEliminateCollapsesChain(t *testing.T) {
	nl := netlist.New("e")
	a, _ := nl.AddInput("a")
	b, _ := nl.AddInput("b")
	c, _ := nl.AddInput("c")
	and1, _ := nl.AddLogic("and1", []*netlist.Node{a, b},
		netlist.Cover{Cubes: []netlist.Cube{netlist.Cube("11")}, Value: netlist.LitOne})
	nl.AddLogic("out", []*netlist.Node{and1, c},
		netlist.Cover{Cubes: []netlist.Cube{netlist.Cube("11")}, Value: netlist.LitOne})
	nl.MarkOutput("out")
	ref := nl.Clone()
	if err := new(qmScratch).eliminate(nl, 10, 3); err != nil {
		t.Fatal(err)
	}
	if nl.Node("and1") != nil {
		t.Fatal("and1 not eliminated")
	}
	if got := len(nl.Node("out").Fanin); got != 3 {
		t.Fatalf("out fanin = %d, want 3", got)
	}
	if err := sim.CheckEquivalent(ref, nl, 8, 0, 1); err != nil {
		t.Fatal(err)
	}
}

func TestMergeDuplicates(t *testing.T) {
	nl := netlist.New("d")
	a, _ := nl.AddInput("a")
	b, _ := nl.AddInput("b")
	and := netlist.Cover{Cubes: []netlist.Cube{netlist.Cube("11")}, Value: netlist.LitOne}
	x, _ := nl.AddLogic("x", []*netlist.Node{a, b}, and.Clone())
	y, _ := nl.AddLogic("y", []*netlist.Node{a, b}, and.Clone())
	or := netlist.Cover{Cubes: []netlist.Cube{netlist.Cube("1-"), netlist.Cube("-1")}, Value: netlist.LitOne}
	nl.AddLogic("out", []*netlist.Node{x, y}, or)
	nl.MarkOutput("out")
	if merged := MergeDuplicates(nl); merged != 1 {
		t.Fatalf("merged %d, want 1", merged)
	}
	out := nl.Node("out")
	if out.Fanin[0] != out.Fanin[1] {
		t.Fatal("duplicate uses not redirected to one node")
	}
}

func TestDecomposeBoundsFanin(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		nl := buildRandomNetlist(t, 100+seed, 8, 20)
		ref := nl.Clone()
		if err := Decompose(nl); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := MaxFanin(nl); got > 2 {
			t.Fatalf("seed %d: max fanin %d after decompose", seed, got)
		}
		if err := sim.CheckEquivalent(ref, nl, 8, 500, seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestDecomposeWideNode(t *testing.T) {
	nl := netlist.New("w")
	var fanin []*netlist.Node
	for i := 0; i < 7; i++ {
		in, _ := nl.AddInput(nameOf("i", i))
		fanin = append(fanin, in)
	}
	// 7-input AND with one complemented literal.
	cube := make(netlist.Cube, 7)
	for i := range cube {
		cube[i] = netlist.LitOne
	}
	cube[3] = netlist.LitZero
	nl.AddLogic("out", fanin, netlist.Cover{Cubes: []netlist.Cube{cube}, Value: netlist.LitOne})
	nl.MarkOutput("out")
	ref := nl.Clone()
	if err := Decompose(nl); err != nil {
		t.Fatal(err)
	}
	if MaxFanin(nl) > 2 {
		t.Fatal("fanin not bounded")
	}
	if err := sim.CheckEquivalent(ref, nl, 8, 0, 1); err != nil {
		t.Fatal(err)
	}
}

func TestCanonicalCoverStable(t *testing.T) {
	c1 := netlist.Cover{Cubes: []netlist.Cube{netlist.Cube("10"), netlist.Cube("01")}, Value: netlist.LitOne}
	c2 := netlist.Cover{Cubes: []netlist.Cube{netlist.Cube("01"), netlist.Cube("10")}, Value: netlist.LitOne}
	if CanonicalCover(c1) != CanonicalCover(c2) {
		t.Fatal("cube order affects canonical form")
	}
	c3 := netlist.Cover{Cubes: []netlist.Cube{netlist.Cube("01"), netlist.Cube("10")}, Value: netlist.LitZero}
	if CanonicalCover(c1) == CanonicalCover(c3) {
		t.Fatal("phase ignored in canonical form")
	}
}
