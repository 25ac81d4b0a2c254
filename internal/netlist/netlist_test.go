package netlist

import (
	"strings"
	"testing"
)

func mustInput(t *testing.T, nl *Netlist, name string) *Node {
	t.Helper()
	n, err := nl.AddInput(name)
	if err != nil {
		t.Fatalf("AddInput(%s): %v", name, err)
	}
	return n
}

func mustLogic(t *testing.T, nl *Netlist, name string, fanin []*Node, cubes ...string) *Node {
	t.Helper()
	var c Cover
	c.Value = LitOne
	for _, s := range cubes {
		c.Cubes = append(c.Cubes, Cube(s))
	}
	n, err := nl.AddLogic(name, fanin, c)
	if err != nil {
		t.Fatalf("AddLogic(%s): %v", name, err)
	}
	return n
}

func buildAndOr(t *testing.T) *Netlist {
	t.Helper()
	nl := New("andor")
	a := mustInput(t, nl, "a")
	b := mustInput(t, nl, "b")
	c := mustInput(t, nl, "c")
	and := mustLogic(t, nl, "and_ab", []*Node{a, b}, "11")
	mustLogic(t, nl, "out", []*Node{and, c}, "1-", "-1")
	nl.MarkOutput("out")
	return nl
}

func TestBuildAndCheck(t *testing.T) {
	nl := buildAndOr(t)
	if err := nl.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	s := nl.Stats()
	if s.Inputs != 3 || s.Outputs != 1 || s.Logic != 2 || s.Latches != 0 {
		t.Errorf("Stats = %+v", s)
	}
	if s.Depth != 2 {
		t.Errorf("Depth = %d, want 2", s.Depth)
	}
}

func TestDuplicateDriverRejected(t *testing.T) {
	nl := New("dup")
	mustInput(t, nl, "a")
	if _, err := nl.AddInput("a"); err == nil {
		t.Fatal("duplicate input accepted")
	}
	if _, err := nl.AddLogic("a", nil, Cover{}); err == nil {
		t.Fatal("logic node shadowing input accepted")
	}
}

func TestCubeWidthMismatchRejected(t *testing.T) {
	nl := New("w")
	a := mustInput(t, nl, "a")
	if _, err := nl.AddLogic("x", []*Node{a}, Cover{Cubes: []Cube{Cube("11")}}); err == nil {
		t.Fatal("mismatched cube width accepted")
	}
}

func TestCombinationalCycleDetected(t *testing.T) {
	nl := New("cyc")
	a := mustInput(t, nl, "a")
	x := mustLogic(t, nl, "x", []*Node{a}, "1")
	y := mustLogic(t, nl, "y", []*Node{x}, "1")
	// Manually close a cycle x <- y.
	x.Fanin[0] = y
	nl.MarkOutput("y")
	if err := nl.Check(); err == nil {
		t.Fatal("combinational cycle not detected")
	}
}

func TestLatchCycleAllowed(t *testing.T) {
	nl := New("reg")
	a := mustInput(t, nl, "a")
	// q feeds back through logic into its own D: legal.
	nl2 := nl
	q, err := nl2.AddLatch("q", a, '0', "clk")
	if err != nil {
		t.Fatalf("AddLatch: %v", err)
	}
	d := mustLogic(t, nl2, "d", []*Node{q, a}, "10", "01") // q xor a
	q.Fanin[0] = d
	nl2.MarkOutput("q")
	if err := nl2.Check(); err != nil {
		t.Fatalf("latch feedback rejected: %v", err)
	}
}

func TestTopoSortOrder(t *testing.T) {
	nl := buildAndOr(t)
	topo, err := nl.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[string]int)
	for i, n := range topo {
		pos[n.Name] = i
	}
	for _, n := range nl.Nodes() {
		if n.Kind != KindLogic {
			continue
		}
		for _, f := range n.Fanin {
			if pos[f.Name] > pos[n.Name] {
				t.Errorf("fanin %s after %s in topo order", f.Name, n.Name)
			}
		}
	}
}

func TestSweepRemovesDeadLogic(t *testing.T) {
	nl := buildAndOr(t)
	a := nl.Node("a")
	mustLogic(t, nl, "dead", []*Node{a}, "1")
	if got := nl.Sweep(); got != 1 {
		t.Fatalf("Sweep removed %d, want 1", got)
	}
	if nl.Node("dead") != nil {
		t.Fatal("dead node still present")
	}
	if nl.Node("and_ab") == nil {
		t.Fatal("live node removed")
	}
}

func TestSweepKeepsLatchCone(t *testing.T) {
	nl := New("s")
	a := mustInput(t, nl, "a")
	d := mustLogic(t, nl, "d", []*Node{a}, "0")
	q, _ := nl.AddLatch("q", d, '0', "")
	out := mustLogic(t, nl, "out", []*Node{q}, "1")
	_ = out
	nl.MarkOutput("out")
	if got := nl.Sweep(); got != 0 {
		t.Fatalf("Sweep removed %d live nodes", got)
	}
	if nl.Node("d") == nil {
		t.Fatal("latch input cone swept")
	}
}

func TestIsConstBufferInverter(t *testing.T) {
	nl := New("c")
	a := mustInput(t, nl, "a")
	one, _ := nl.AddLogic("one", nil, Cover{Cubes: []Cube{{}}, Value: LitOne})
	zero, _ := nl.AddLogic("zero", nil, Cover{Value: LitOne})
	buf := mustLogic(t, nl, "buf", []*Node{a}, "1")
	inv := mustLogic(t, nl, "inv", []*Node{a}, "0")
	if ok, v := one.IsConst(); !ok || !v {
		t.Error("one not detected as const 1")
	}
	if ok, v := zero.IsConst(); !ok || v {
		t.Error("zero not detected as const 0")
	}
	if !buf.IsBuffer() || buf.IsInverter() {
		t.Error("buffer misdetected")
	}
	if !inv.IsInverter() || inv.IsBuffer() {
		t.Error("inverter misdetected")
	}
}

func TestCloneIsDeep(t *testing.T) {
	nl := buildAndOr(t)
	c := nl.Clone()
	c.Node("and_ab").Cover.Cubes[0][0] = LitZero
	if nl.Node("and_ab").Cover.Cubes[0][0] != LitOne {
		t.Fatal("clone shares cube storage")
	}
	if err := c.Check(); err != nil {
		t.Fatalf("clone Check: %v", err)
	}
	if c.Node("out").Fanin[0] == nl.Node("and_ab") {
		t.Fatal("clone shares node pointers")
	}
}

func TestRenameAndReplaceUses(t *testing.T) {
	nl := buildAndOr(t)
	and := nl.Node("and_ab")
	if err := nl.Rename(and, "conj"); err != nil {
		t.Fatal(err)
	}
	if nl.Node("and_ab") != nil || nl.Node("conj") != and {
		t.Fatal("rename did not update index")
	}
	a := nl.Node("a")
	nl.ReplaceUses(and, a)
	if nl.Node("out").Fanin[0] != a {
		t.Fatal("ReplaceUses missed a reference")
	}
}

func TestFreshName(t *testing.T) {
	nl := buildAndOr(t)
	if got := nl.FreshName("zz"); got != "zz" {
		t.Errorf("FreshName unused prefix = %q", got)
	}
	got := nl.FreshName("a")
	if got == "a" || nl.Node(got) != nil {
		t.Errorf("FreshName collided: %q", got)
	}
}

const sampleBLIF = `
# full adder with registered carry
.model fadd
.inputs a b cin clk
.outputs sum cout
.names a b cin sum
100 1
010 1
001 1
111 1
.names a b cin x
11- 1
1-1 1
-11 1
.latch x cout re clk 0
.end
`

func TestReadBLIF(t *testing.T) {
	nl, err := ParseBLIF(sampleBLIF)
	if err != nil {
		t.Fatal(err)
	}
	if nl.Name != "fadd" {
		t.Errorf("model = %q", nl.Name)
	}
	if len(nl.Inputs) != 4 || len(nl.Outputs) != 2 {
		t.Fatalf("io = %d/%d", len(nl.Inputs), len(nl.Outputs))
	}
	cout := nl.Node("cout")
	if cout == nil || cout.Kind != KindLatch || cout.Init != '0' || cout.Clock != "clk" {
		t.Fatalf("latch parsed wrong: %+v", cout)
	}
	sum := nl.Node("sum")
	tt, err := TruthTable(sum)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 8; m++ {
		bits := m&1 + m>>1&1 + m>>2&1
		if tt[m] != (bits%2 == 1) {
			t.Errorf("sum(%03b) = %v", m, tt[m])
		}
	}
}

func TestReadBLIFLineContinuation(t *testing.T) {
	nl, err := ParseBLIF(".model c\n.inputs a \\\nb\n.outputs o\n.names a b o\n11 1\n.end\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(nl.Inputs) != 2 {
		t.Fatalf("inputs = %d, want 2", len(nl.Inputs))
	}
}

func TestReadBLIFErrors(t *testing.T) {
	cases := []struct {
		name, text string
	}{
		{"undriven output", ".model m\n.inputs a\n.outputs o\n.end\n"},
		{"undriven fanin", ".model m\n.inputs a\n.outputs o\n.names a q o\n11 1\n.end\n"},
		{"bad literal", ".model m\n.inputs a\n.outputs o\n.names a o\n2 1\n.end\n"},
		{"bad output value", ".model m\n.inputs a\n.outputs o\n.names a o\n1 x\n.end\n"},
		{"cube width", ".model m\n.inputs a\n.outputs o\n.names a o\n11 1\n.end\n"},
		{"mixed phase", ".model m\n.inputs a b\n.outputs o\n.names a b o\n11 1\n00 0\n.end\n"},
		{"duplicate driver", ".model m\n.inputs a\n.outputs o\n.names a o\n1 1\n.names a o\n0 1\n.end\n"},
		{"bad latch init", ".model m\n.inputs a\n.outputs q\n.latch a q 7\n.end\n"},
		{"unknown construct", ".model m\n.gate and2 a=x\n.end\n"},
	}
	for _, tc := range cases {
		if _, err := ParseBLIF(tc.text); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestBLIFRoundTrip(t *testing.T) {
	nl, err := ParseBLIF(sampleBLIF)
	if err != nil {
		t.Fatal(err)
	}
	text := FormatBLIF(nl)
	nl2, err := ParseBLIF(text)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	if FormatBLIF(nl2) != text {
		t.Fatal("BLIF not canonical under roundtrip")
	}
	s1, s2 := nl.Stats(), nl2.Stats()
	if s1 != s2 {
		t.Fatalf("stats changed: %+v vs %+v", s1, s2)
	}
}

func TestConstantsRoundTrip(t *testing.T) {
	nl := New("k")
	nl.MarkOutput("one")
	nl.MarkOutput("zero")
	if _, err := nl.AddLogic("one", nil, Cover{Cubes: []Cube{{}}, Value: LitOne}); err != nil {
		t.Fatal(err)
	}
	if _, err := nl.AddLogic("zero", nil, Cover{Value: LitOne}); err != nil {
		t.Fatal(err)
	}
	nl2, err := ParseBLIF(FormatBLIF(nl))
	if err != nil {
		t.Fatal(err)
	}
	if ok, v := nl2.Node("one").IsConst(); !ok || !v {
		t.Error("const 1 lost in roundtrip")
	}
	if ok, v := nl2.Node("zero").IsConst(); !ok || v {
		t.Error("const 0 lost in roundtrip")
	}
}

func TestOffsetCover(t *testing.T) {
	nl, err := ParseBLIF(".model m\n.inputs a b\n.outputs o\n.names a b o\n11 0\n.end\n")
	if err != nil {
		t.Fatal(err)
	}
	tt, err := TruthTable(nl.Node("o"))
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, true, true, false} // NAND
	for m, w := range want {
		if tt[m] != w {
			t.Errorf("o(%02b) = %v, want %v", m, tt[m], w)
		}
	}
	// Roundtrip keeps the off-set encoding.
	if !strings.Contains(FormatBLIF(nl), "11 0") {
		t.Error("off-set cover not written back")
	}
}

func TestCoverFromTruthTable(t *testing.T) {
	tt := []bool{false, true, true, false} // XOR
	c := CoverFromTruthTable(tt, 2)
	for m := 0; m < 4; m++ {
		in := []bool{m&1 != 0, m&2 != 0}
		if EvalCover(c, in) != tt[m] {
			t.Errorf("minterm %d mismatch", m)
		}
	}
}

func TestBuildFanout(t *testing.T) {
	nl := buildAndOr(t)
	nl.BuildFanout()
	a := nl.Node("a")
	if len(a.Fanout()) != 1 || a.Fanout()[0].Name != "and_ab" {
		t.Fatalf("fanout(a) = %v", a.Fanout())
	}
	and := nl.Node("and_ab")
	if len(and.Fanout()) != 1 {
		t.Fatalf("fanout(and_ab) = %d", len(and.Fanout()))
	}
}
