package techmap

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sort"
	"testing"

	"fpgaflow/internal/logic"
	"fpgaflow/internal/netlist"
)

// refLabels is the reference FlowMap labelling, with a map-keyed cone and
// a freshly allocated flow network per node. aug holds each node's
// augmenting paths.
func refLabels(t *testing.T, nl *netlist.Netlist, k int) (label map[*netlist.Node]int, cut map[*netlist.Node][]*netlist.Node, aug map[*netlist.Node]int) {
	t.Helper()
	topo, err := nl.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	label = make(map[*netlist.Node]int, nl.NumNodes())
	cut = make(map[*netlist.Node][]*netlist.Node, nl.NumNodes())
	aug = make(map[*netlist.Node]int, nl.NumNodes())
	for _, n := range topo {
		if n.Kind != netlist.KindLogic {
			label[n] = 0
			continue
		}
		if len(n.Fanin) == 0 {
			label[n] = 0
			cut[n] = nil
			continue
		}
		p := 0
		for _, f := range n.Fanin {
			if label[f] > p {
				p = label[f]
			}
		}
		cone := refCollectCone(n)
		label[n] = p
		cutNodes, feasible, flow := refKFeasibleCut(cone, label, p, k)
		aug[n] = flow
		if feasible {
			cut[n] = cutNodes
		} else {
			label[n] = p + 1
			cut[n] = append([]*netlist.Node(nil), n.Fanin...)
		}
	}
	return label, cut, aug
}

func refCollectCone(t *netlist.Node) map[*netlist.Node]bool {
	cone := make(map[*netlist.Node]bool)
	var walk func(n *netlist.Node)
	walk = func(n *netlist.Node) {
		if cone[n] || n.Kind != netlist.KindLogic {
			return
		}
		cone[n] = true
		for _, f := range n.Fanin {
			walk(f)
		}
	}
	walk(t)
	return cone
}

// refKFeasibleCut also returns the flow it reached (its augmentations).
func refKFeasibleCut(cone map[*netlist.Node]bool, label map[*netlist.Node]int, p, k int) ([]*netlist.Node, bool, int) {
	type arc struct {
		to  int
		cap int
		rev int
	}
	var adj [][]arc
	addNode := func() int {
		adj = append(adj, nil)
		return len(adj) - 1
	}
	addArc := func(u, v, c int) {
		adj[u] = append(adj[u], arc{to: v, cap: c, rev: len(adj[v])})
		adj[v] = append(adj[v], arc{to: u, cap: 0, rev: len(adj[u]) - 1})
	}
	for n := range cone {
		for _, f := range n.Fanin {
			if label[f] == p && !cone[f] {
				return nil, false, 0
			}
		}
	}
	src := addNode()
	sink := addNode()
	inV := make(map[*netlist.Node]int)
	outV := make(map[*netlist.Node]int)
	vertexOf := func(n *netlist.Node, out bool) int {
		if label[n] == p {
			return sink
		}
		if out {
			if v, ok := outV[n]; ok {
				return v
			}
		} else {
			if v, ok := inV[n]; ok {
				return v
			}
		}
		vin, vout := addNode(), addNode()
		inV[n], outV[n] = vin, vout
		addArc(vin, vout, 1)
		if !cone[n] {
			addArc(src, vin, k+1)
		}
		if out {
			return vout
		}
		return vin
	}
	for n := range cone {
		if label[n] == p {
			for _, f := range n.Fanin {
				if label[f] == p {
					continue
				}
				addArc(vertexOf(f, true), sink, k+1)
			}
			continue
		}
		nv := vertexOf(n, false)
		for _, f := range n.Fanin {
			if label[f] == p {
				continue
			}
			addArc(vertexOf(f, true), nv, k+1)
		}
	}
	flow := 0
	for flow <= k {
		parent := make([]int, len(adj))
		parentArc := make([]int, len(adj))
		for i := range parent {
			parent[i] = -1
		}
		parent[src] = src
		queue := []int{src}
		for len(queue) > 0 && parent[sink] < 0 {
			u := queue[0]
			queue = queue[1:]
			for ai, a := range adj[u] {
				if a.cap > 0 && parent[a.to] < 0 {
					parent[a.to] = u
					parentArc[a.to] = ai
					queue = append(queue, a.to)
				}
			}
		}
		if parent[sink] < 0 {
			break
		}
		v := sink
		for v != src {
			u := parent[v]
			a := &adj[u][parentArc[v]]
			a.cap--
			adj[v][a.rev].cap++
			v = u
		}
		flow++
	}
	if flow > k {
		return nil, false, flow
	}
	reach := make([]bool, len(adj))
	reach[src] = true
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, a := range adj[u] {
			if a.cap > 0 && !reach[a.to] {
				reach[a.to] = true
				queue = append(queue, a.to)
			}
		}
	}
	var cutNodes []*netlist.Node
	for n, vin := range inV {
		if reach[vin] && !reach[outV[n]] {
			cutNodes = append(cutNodes, n)
		}
	}
	sort.Slice(cutNodes, func(i, j int) bool { return cutNodes[i].Name < cutNodes[j].Name })
	if len(cutNodes) > k {
		return nil, false, flow
	}
	return cutNodes, true, flow
}

// refConeTruthTable is the reference row-at-a-time cone evaluation.
func refConeTruthTable(t *netlist.Node, inputs []*netlist.Node) []bool {
	rows := 1 << uint(len(inputs))
	tt := make([]bool, rows)
	val := make(map[*netlist.Node]bool)
	var eval func(n *netlist.Node) bool
	eval = func(n *netlist.Node) bool {
		if v, ok := val[n]; ok {
			return v
		}
		in := make([]bool, len(n.Fanin))
		for i, f := range n.Fanin {
			in[i] = eval(f)
		}
		v := netlist.EvalCover(n.Cover, in)
		val[n] = v
		return v
	}
	for m := 0; m < rows; m++ {
		clear(val)
		for i, in := range inputs {
			val[in] = m&(1<<uint(i)) != 0
		}
		tt[m] = eval(t)
	}
	return tt
}

// rowsOf unpacks the 2^k rows of a word-wide truth table.
func rowsOf(words []uint64, k int) []bool {
	tt := make([]bool, 1<<uint(k))
	for r := range tt {
		tt[r] = words[r>>6]>>uint(r&63)&1 != 0
	}
	return tt
}

// buildRandomSequential makes a network of 1..3-input gates with random
// functions over inputs, latches and a constant, so cuts cross latch
// boundaries and constants sit inside cones.
func buildRandomSequential(t *testing.T, seed int64, nIn, nLatch, nGates int) *netlist.Netlist {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nl := netlist.New("rs")
	var pool, latches []*netlist.Node
	for i := 0; i < nIn; i++ {
		in, _ := nl.AddInput("i" + gname(i))
		pool = append(pool, in)
	}
	for i := 0; i < nLatch; i++ {
		q, _ := nl.AddLatch("q"+gname(i), nil, '0', "clk")
		pool = append(pool, q)
		latches = append(latches, q)
	}
	one, _ := nl.AddLogic("one", nil, netlist.Cover{Cubes: []netlist.Cube{{}}, Value: netlist.LitOne})
	pool = append(pool, one)
	for i := 0; i < nGates; i++ {
		var fanin []*netlist.Node
		seen := map[*netlist.Node]bool{}
		for k := 1 + rng.Intn(3); len(fanin) < k; {
			c := pool[rng.Intn(len(pool))]
			if !seen[c] {
				seen[c] = true
				fanin = append(fanin, c)
			}
		}
		tt := make([]bool, 1<<uint(len(fanin)))
		for j := range tt {
			tt[j] = rng.Intn(2) == 1
		}
		g, err := nl.AddLogic(gname(i), fanin, netlist.CoverFromTruthTable(tt, len(fanin)))
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, g)
	}
	for _, q := range latches {
		q.Fanin = []*netlist.Node{pool[nIn+nLatch+1+rng.Intn(nGates)]}
	}
	for i := 0; i < 4; i++ {
		nl.MarkOutput(pool[len(pool)-1-i].Name)
	}
	if err := nl.Check(); err != nil {
		t.Fatal(err)
	}
	return nl
}

// mappingInputs returns the committed example netlists, decomposed with
// and without the flow's Optimize pass first, and seeded random networks.
func mappingInputs(t *testing.T) map[string]*netlist.Netlist {
	t.Helper()
	nls := map[string]*netlist.Netlist{}
	for _, name := range []string{"count2", "fulladder", "pipe48", "rand64", "rand128"} {
		nls[name] = exampleNetlist(t, name, true)
		if !testing.Short() {
			nls[name+"/unoptimized"] = exampleNetlist(t, name, false)
		}
	}
	for seed := int64(0); seed < 4; seed++ {
		nls["r2/"+gname(int(seed))] = buildRandom2Bounded(t, seed, 8, 80)
		nls["seq/"+gname(int(seed))] = buildRandomSequential(t, seed, 6, 4, 60)
	}
	return nls
}

// exampleNetlist loads a committed example and decomposes it, after the
// flow's Optimize pass when optimize is set.
func exampleNetlist(tb testing.TB, name string, optimize bool) *netlist.Netlist {
	tb.Helper()
	src, err := os.ReadFile("../../examples/netlists/" + name + ".blif")
	if err != nil {
		tb.Fatal(err)
	}
	nl, err := netlist.ParseBLIF(string(src))
	if err != nil {
		tb.Fatal(err)
	}
	if optimize {
		if _, err := logic.Optimize(nl); err != nil {
			tb.Fatal(err)
		}
	}
	if err := logic.Decompose(nl); err != nil {
		tb.Fatal(err)
	}
	return nl
}

func names(nodes []*netlist.Node) []string {
	s := make([]string, len(nodes))
	for i, n := range nodes {
		s[i] = n.Name
	}
	return s
}

// TestDenseFlowMapMatchesReference checks the dense labelling node by
// node against the reference: equal labels, equal cuts, equal augmenting
// paths per cut test, equal cone truth tables, and a byte-identical
// mapped netlist.
func TestDenseFlowMapMatchesReference(t *testing.T) {
	for name, nl := range mappingInputs(t) {
		for k := 3; k <= 6; k++ {
			t.Run(fmt.Sprintf("%s/K=%d", name, k), func(t *testing.T) { checkAgainstReference(t, nl, k) })
		}
	}
}

// checkAgainstReference labels nl node by node and compares each step
// with the reference labelling.
func checkAgainstReference(t *testing.T, nl *netlist.Netlist, k int) {
	t.Helper()
	refLabel, refCut, refAug := refLabels(t, nl, k)
	m, err := newFlowMapper(nl, k)
	if err != nil {
		t.Fatal(err)
	}
	var ce coneEval
	for _, id := range m.topo {
		n := m.nodes[id]
		before := m.augmentations
		m.labelNode(id)
		if got, want := int(m.label[id]), refLabel[n]; got != want {
			t.Fatalf("%s label %d, reference %d", n.Name, got, want)
		}
		if got, want := int(m.augmentations-before), refAug[n]; got != want {
			t.Fatalf("%s %d augmentations, reference %d", n.Name, got, want)
		}
		cut, ok := m.cutOf(n)
		want, wantOK := refCut[n]
		if ok != wantOK || !slices.Equal(names(cut), names(want)) {
			t.Fatalf("%s cut %v (%v), reference %v (%v)", n.Name, names(cut), ok, names(want), wantOK)
		}
		if !ok || len(cut) == 0 {
			continue
		}
		got, err := ce.truthTable(n, cut)
		if err != nil {
			t.Fatal(err)
		}
		ref := refConeTruthTable(n, want)
		if !slices.Equal(rowsOf(got, len(cut)), ref) {
			t.Fatalf("%s truth table differs from reference", n.Name)
		}
	}
	res, err := FlowMap(nl, k)
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := buildMapped(nl, func(n *netlist.Node) ([]*netlist.Node, bool) {
		c, ok := refCut[n]
		return c, ok
	})
	if err != nil {
		t.Fatal(err)
	}
	if netlist.FormatBLIF(res.Netlist) != netlist.FormatBLIF(refRes.Netlist) {
		t.Fatalf("mapped BLIF differs from reference")
	}
	total := 0
	for _, a := range refAug {
		total += a
	}
	if res.Augmentations != int64(total) || res.Augmentations != m.augmentations || res.CutTests != m.cutTests {
		t.Fatalf("effort %d tests/%d augmentations, labelling %d/%d, reference augmentations %d",
			res.CutTests, res.Augmentations, m.cutTests, m.augmentations, total)
	}
}

// TestConeTruthTableWide checks the bit-parallel evaluation against the
// reference on supports wider than one 64-row word.
func TestConeTruthTableWide(t *testing.T) {
	var ce coneEval
	for seed := int64(0); seed < 6; seed++ {
		nl := buildRandomSequential(t, seed, 10, 2, 60)
		for _, n := range nl.Nodes() {
			if n.Kind != netlist.KindLogic {
				continue
			}
			// The support: every input and latch in the transitive fanin.
			var support []*netlist.Node
			for c := range refCollectCone(n) {
				for _, f := range c.Fanin {
					if f.Kind != netlist.KindLogic && !slices.Contains(support, f) {
						support = append(support, f)
					}
				}
			}
			sort.Slice(support, func(i, j int) bool { return support[i].Name < support[j].Name })
			got, err := ce.truthTable(n, support)
			if err != nil {
				t.Fatal(err)
			}
			want := refConeTruthTable(n, support)
			if !slices.Equal(rowsOf(got, len(support)), want) {
				t.Fatalf("seed %d: %s over %d inputs differs from reference", seed, n.Name, len(support))
			}
		}
	}
	if _, err := ce.truthTable(&netlist.Node{Name: "x", Kind: netlist.KindLogic, Fanin: []*netlist.Node{{Name: "a"}}}, nil); err == nil {
		t.Fatal("cone escaping its cut accepted")
	}
}

// TestMapGreedyDeterministic requires repeated greedy mappings of the same
// network to be byte-identical.
func TestMapGreedyDeterministic(t *testing.T) {
	for _, name := range []string{"rand64", "pipe48"} {
		nl := exampleNetlist(t, name, true)
		var ref string
		for run := 0; run < 5; run++ {
			res, err := MapGreedy(nl, 4)
			if err != nil {
				t.Fatal(err)
			}
			blif := netlist.FormatBLIF(res.Netlist)
			if run == 0 {
				ref = blif
			} else if blif != ref {
				t.Fatalf("%s: greedy run %d differs from run 0", name, run)
			}
		}
	}
}

// BenchmarkFlowMap maps the largest committed example onto 4-LUTs after
// the flow's SIS script.
func BenchmarkFlowMap(b *testing.B) {
	nl := exampleNetlist(b, "rand128", true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FlowMap(nl, 4); err != nil {
			b.Fatal(err)
		}
	}
}
