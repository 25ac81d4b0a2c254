package sim

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"fpgaflow/internal/netlist"
)

const adderBLIF = `
.model fadd
.inputs a b cin
.outputs sum cout
.names a b cin sum
100 1
010 1
001 1
111 1
.names a b cin cout
11- 1
1-1 1
-11 1
.end
`

const counterBLIF = `
.model cnt2
.inputs en
.outputs q0 q1
.names en q0 d0
10 1
01 1
.names en q0 q1 d1
110 1
0-1 1
-01 1
.latch d0 q0 re clk 0
.latch d1 q1 re clk 0
.end
`

func TestEvalFullAdder(t *testing.T) {
	nl, err := netlist.ParseBLIF(adderBLIF)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 8; m++ {
		in := map[string]bool{"a": m&1 != 0, "b": m&2 != 0, "cin": m&4 != 0}
		out, err := Eval(nl, in)
		if err != nil {
			t.Fatal(err)
		}
		n := m&1 + m>>1&1 + m>>2&1
		if out["sum"] != (n%2 == 1) || out["cout"] != (n >= 2) {
			t.Errorf("adder(%03b): sum=%v cout=%v", m, out["sum"], out["cout"])
		}
	}
}

func TestSequentialCounter(t *testing.T) {
	nl, err := netlist.ParseBLIF(counterBLIF)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(nl)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for cyc := 0; cyc < 10; cyc++ {
		en := cyc%3 != 0
		out, err := s.Step(map[string]bool{"en": en})
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		if out["q0"] {
			got |= 1
		}
		if out["q1"] {
			got |= 2
		}
		if got != count%4 {
			t.Fatalf("cycle %d: q=%d, want %d", cyc, got, count%4)
		}
		if en {
			count++
		}
	}
	if s.Cycles() != 10 {
		t.Errorf("Cycles = %d", s.Cycles())
	}
}

func TestStepMissingInput(t *testing.T) {
	nl, _ := netlist.ParseBLIF(adderBLIF)
	s, _ := New(nl)
	if _, err := s.Step(map[string]bool{"a": true}); err == nil {
		t.Fatal("missing inputs accepted")
	}
}

func TestEvalRejectsSequential(t *testing.T) {
	nl, _ := netlist.ParseBLIF(counterBLIF)
	if _, err := Eval(nl, map[string]bool{"en": true}); err == nil {
		t.Fatal("Eval on sequential netlist accepted")
	}
}

func TestCheckEquivalentCombinational(t *testing.T) {
	a, _ := netlist.ParseBLIF(adderBLIF)
	b, _ := netlist.ParseBLIF(adderBLIF)
	if err := CheckEquivalent(a, b, 16, 100, 1); err != nil {
		t.Fatalf("identical netlists reported different: %v", err)
	}
	// Break b: flip sum cover to even parity.
	b2, _ := netlist.ParseBLIF(`
.model fadd
.inputs a b cin
.outputs sum cout
.names a b cin sum
000 1
110 1
101 1
011 1
.names a b cin cout
11- 1
1-1 1
-11 1
.end`)
	err := CheckEquivalent(a, b2, 16, 100, 1)
	if err == nil {
		t.Fatal("different netlists reported equivalent")
	}
	if _, ok := err.(*NotEquivalentError); !ok {
		t.Fatalf("want NotEquivalentError, got %T: %v", err, err)
	}
}

func TestCheckEquivalentSequential(t *testing.T) {
	a, _ := netlist.ParseBLIF(counterBLIF)
	b, _ := netlist.ParseBLIF(counterBLIF)
	if err := CheckEquivalent(a, b, 16, 200, 7); err != nil {
		t.Fatalf("identical counters differ: %v", err)
	}
	// A counter with inverted reset state must differ.
	c, _ := netlist.ParseBLIF(counterBLIF)
	c.Node("q0").Init = '1'
	if err := CheckEquivalent(a, c, 16, 200, 7); err == nil {
		t.Fatal("different reset state not detected")
	}
}

func TestCheckEquivalentNameMismatch(t *testing.T) {
	a, _ := netlist.ParseBLIF(adderBLIF)
	b, _ := netlist.ParseBLIF(".model m\n.inputs x y z\n.outputs sum cout\n.names x y z sum\n111 1\n.names x y z cout\n111 1\n.end\n")
	if err := CheckEquivalent(a, b, 16, 10, 1); err == nil {
		t.Fatal("input name mismatch not detected")
	}
}

// TestEquivalenceMatchesTruthTable cross-checks random single-node functions:
// a netlist node against an independently rebuilt minterm cover.
func TestEquivalenceMatchesTruthTable(t *testing.T) {
	f := func(ttRaw uint16) bool {
		tt := make([]bool, 16)
		for i := range tt {
			tt[i] = ttRaw&(1<<uint(i)) != 0
		}
		a := netlist.New("a")
		ins := make([]*netlist.Node, 4)
		names := []string{"i0", "i1", "i2", "i3"}
		for i, nm := range names {
			ins[i], _ = a.AddInput(nm)
		}
		if _, err := a.AddLogic("o", ins, netlist.CoverFromTruthTable(tt, 4)); err != nil {
			return false
		}
		a.MarkOutput("o")
		b := a.Clone()
		return CheckEquivalent(a, b, 16, 0, 1) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateActivity(t *testing.T) {
	nl, err := netlist.ParseBLIF(counterBLIF)
	if err != nil {
		t.Fatal(err)
	}
	act, err := EstimateActivity(nl, 2000, 0.5, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	// q0 toggles on every enabled cycle: density near 0.5 with en toggling
	// half the time -> between 0.2 and 0.8.
	d := act.Density["q0"]
	if d < 0.2 || d > 0.8 {
		t.Errorf("q0 density = %v", d)
	}
	p := act.StaticProb["q0"]
	if p < 0.3 || p > 0.7 {
		t.Errorf("q0 static prob = %v", p)
	}
	for name, dens := range act.Density {
		if dens < 0 || dens > 2 {
			t.Errorf("%s density out of range: %v", name, dens)
		}
	}
}

func TestActivityDeterministicWithSeed(t *testing.T) {
	nl, _ := netlist.ParseBLIF(counterBLIF)
	a1, err := EstimateActivity(nl, 500, 0.5, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := EstimateActivity(nl, 500, 0.5, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range a1.Density {
		if a2.Density[k] != v {
			t.Fatalf("activity not deterministic for %s", k)
		}
	}
}

const mixBLIF = `
.model mix
.inputs a b c d e f
.outputs x y z
.names a b c t
11- 1
-01 1
.names t d e x
1-1 1
01- 1
.names t e f y
110 1
0-1 1
.names x y f z
11- 1
--1 1
.end
`

// evalLoopReference is CheckEquivalent as a fresh sim.Eval per vector:
// the same vector order, random stream and output order, without reusing
// a simulator between vectors.
func evalLoopReference(t *testing.T, a, b *netlist.Netlist, exhaustiveLimit, nVectors int, seed int64) error {
	t.Helper()
	names := InputNames(a)
	var vectors []map[string]bool
	if len(names) <= exhaustiveLimit {
		for m := uint64(0); m < 1<<uint(len(names)); m++ {
			vectors = append(vectors, inputVector(names, m))
		}
	} else {
		rng := rand.New(rand.NewSource(seed))
		for v := 0; v < nVectors; v++ {
			vectors = append(vectors, randomVector(names, rng))
		}
	}
	for _, in := range vectors {
		oa, err := Eval(a, in)
		if err != nil {
			t.Fatal(err)
		}
		ob, err := Eval(b, in)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range a.Outputs {
			if oa[o] != ob[o] {
				return &NotEquivalentError{Output: o, Inputs: in, Cycle: 0, A: oa[o], B: ob[o]}
			}
		}
	}
	return nil
}

// TestCheckEquivalentMatchesEvalLoop flips one cover bit at a time and
// checks the reused-simulator check reports exactly the counterexample a
// per-vector Eval loop finds, on the exhaustive and the random path.
func TestCheckEquivalentMatchesEvalLoop(t *testing.T) {
	a, err := netlist.ParseBLIF(mixBLIF)
	if err != nil {
		t.Fatal(err)
	}
	flips := 0
	for _, name := range []string{"t", "x", "y", "z"} {
		for ci, cube := range a.Node(name).Cover.Cubes {
			for li, lit := range cube {
				if lit == netlist.LitDC {
					continue
				}
				b := a.Clone()
				flipped := b.Node(name).Cover.Cubes[ci].Clone()
				flipped[li] = netlist.LitOne
				if lit == netlist.LitOne {
					flipped[li] = netlist.LitZero
				}
				b.Node(name).Cover.Cubes[ci] = flipped
				for _, path := range []struct {
					name            string
					exhaustiveLimit int
				}{{"exhaustive", 16}, {"random", 0}} {
					got := CheckEquivalent(a, b, path.exhaustiveLimit, 40, 5)
					want := evalLoopReference(t, a, b, path.exhaustiveLimit, 40, 5)
					if want == nil {
						if got != nil {
							t.Errorf("%s cube %d lit %d %s: got %v, Eval loop found no difference", name, ci, li, path.name, got)
						}
						continue
					}
					flips++
					g, ok := got.(*NotEquivalentError)
					if !ok {
						t.Fatalf("%s cube %d lit %d %s: want *NotEquivalentError, got %T: %v", name, ci, li, path.name, got, got)
					}
					if !reflect.DeepEqual(g, want) {
						t.Errorf("%s cube %d lit %d %s:\n got %v\nwant %v", name, ci, li, path.name, g, want)
					}
				}
			}
		}
	}
	if flips == 0 {
		t.Fatal("no flipped cover bit changed the function")
	}
}
