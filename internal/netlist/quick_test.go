package netlist

import (
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// randomNetlist builds a structurally random valid netlist.
func randomNetlist(rng *rand.Rand) *Netlist {
	nl := New("q")
	var pool []*Node
	nIn := 1 + rng.Intn(6)
	for i := 0; i < nIn; i++ {
		in, _ := nl.AddInput(sigName("in", i))
		pool = append(pool, in)
	}
	nNodes := 1 + rng.Intn(20)
	for i := 0; i < nNodes; i++ {
		if rng.Intn(5) == 0 && len(pool) > 0 {
			// Latch with random init.
			inits := []byte{'0', '1', '2', '3'}
			q, _ := nl.AddLatch(sigName("q", i), pool[rng.Intn(len(pool))],
				inits[rng.Intn(len(inits))], "clk")
			pool = append(pool, q)
			continue
		}
		k := 1 + rng.Intn(4)
		if k > len(pool) {
			k = len(pool)
		}
		fanin := make([]*Node, 0, k)
		seen := map[*Node]bool{}
		for len(fanin) < k {
			c := pool[rng.Intn(len(pool))]
			if !seen[c] {
				seen[c] = true
				fanin = append(fanin, c)
			}
		}
		var cover Cover
		cover.Value = LitOne
		if rng.Intn(6) == 0 {
			cover.Value = LitZero
		}
		nCubes := 1 + rng.Intn(4)
		for c := 0; c < nCubes; c++ {
			cube := make(Cube, k)
			for j := range cube {
				cube[j] = []LitValue{LitZero, LitOne, LitDC}[rng.Intn(3)]
			}
			cover.Cubes = append(cover.Cubes, cube)
		}
		n, _ := nl.AddLogic(sigName("n", i), fanin, cover)
		pool = append(pool, n)
	}
	nOut := 1 + rng.Intn(3)
	for i := 0; i < nOut && i < len(pool); i++ {
		cand := pool[len(pool)-1-i]
		if !nl.IsOutput(cand.Name) {
			nl.MarkOutput(cand.Name)
		}
	}
	return nl
}

func sigName(p string, i int) string {
	return p + string(rune('a'+i/26)) + string(rune('a'+i%26))
}

// TestBLIFRoundTripProperty: any valid netlist must survive
// write-parse-write with identical text and identical structure.
func TestBLIFRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nl := randomNetlist(rng)
		if err := nl.Check(); err != nil {
			t.Logf("generator produced invalid netlist: %v", err)
			return false
		}
		text := FormatBLIF(nl)
		back, err := ParseBLIF(text)
		if err != nil {
			t.Logf("reparse failed: %v\n%s", err, text)
			return false
		}
		if FormatBLIF(back) != text {
			t.Logf("not canonical:\n%s", text)
			return false
		}
		if back.Stats() != nl.Stats() {
			return false
		}
		// Every latch keeps init and clock.
		for _, n := range nl.Nodes() {
			if n.Kind != KindLatch {
				continue
			}
			b := back.Node(n.Name)
			if b == nil || b.Init != n.Init || b.Clock != n.Clock {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestBLIFParserNeverPanics mutates valid BLIF text.
func TestBLIFParserNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	base := FormatBLIF(randomNetlist(rng))
	run := func(src string) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic on %q: %v", src, r)
			}
		}()
		_, _ = ParseBLIF(src)
	}
	src := base
	for i := 0; i < 300; i++ {
		run(src)
		b := []byte(base)
		switch rng.Intn(3) {
		case 0:
			src = base[:rng.Intn(len(base))]
		case 1:
			b[rng.Intn(len(b))] = byte(rng.Intn(128))
			src = string(b)
		default:
			lines := strings.Split(base, "\n")
			rng.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
			src = strings.Join(lines, "\n")
		}
	}
}

// numbered reports whether every node of nl sits at its ID and the
// netlist passes Check.
func numbered(t *testing.T, nl *Netlist, step string) bool {
	for i, n := range nl.Nodes() {
		if n.ID() != i || !nl.Contains(n) {
			t.Logf("after %s: %s has ID %d at position %d", step, n.Name, n.ID(), i)
			return false
		}
	}
	if err := nl.Check(); err != nil {
		t.Logf("after %s: %v", step, err)
		return false
	}
	return true
}

// TestNodeIDInvariantProperty: nl.Nodes()[n.ID()] == n holds after every
// mutation that keeps the network valid (Add*, Clone, Rename, ReplaceUses,
// Sweep), and Contains rejects a clone's nodes and swept nodes.
func TestNodeIDInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nl := randomNetlist(rng)
		if !numbered(t, nl, "Add*") {
			return false
		}
		c := nl.Clone()
		if !numbered(t, c, "Clone") {
			return false
		}
		for i, n := range nl.Nodes() {
			if c.Contains(n) || c.Nodes()[i].ID() != n.ID() {
				return false
			}
		}
		victim := nl.Nodes()[rng.Intn(nl.NumNodes())]
		if err := nl.Rename(victim, "renamed"); err != nil || !numbered(t, nl, "Rename") {
			return false
		}
		// Redirect a logic node's uses to an input: inputs have no fanin,
		// so the network stays acyclic.
		for _, n := range nl.Nodes() {
			if n.Kind == KindLogic {
				nl.ReplaceUses(n, nl.Inputs[rng.Intn(len(nl.Inputs))])
				break
			}
		}
		if !numbered(t, nl, "ReplaceUses") {
			return false
		}
		late, err := nl.AddInput("late")
		if err != nil || late.ID() != nl.NumNodes()-1 || !numbered(t, nl, "AddInput") {
			return false
		}
		before := slices.Clone(nl.Nodes())
		removed := nl.Sweep()
		if len(before)-removed != nl.NumNodes() || !numbered(t, nl, "Sweep") {
			return false
		}
		for _, n := range before {
			if nl.Contains(n) != (nl.Node(n.Name) == n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestTopoSortConcurrent runs TopoSort and Stats on one netlist from
// several goroutines: they read the network only, so under -race they
// must neither race nor disagree.
func TestTopoSortConcurrent(t *testing.T) {
	nl := randomNetlist(rand.New(rand.NewSource(11)))
	want, err := nl.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	wantStats := nl.Stats()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				got, err := nl.TopoSort()
				if err != nil || !slices.Equal(got, want) || nl.Stats() != wantStats {
					t.Errorf("concurrent TopoSort/Stats disagree: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
