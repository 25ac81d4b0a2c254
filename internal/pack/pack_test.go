package pack_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fpgaflow/internal/check"
	"fpgaflow/internal/netlist"
	"fpgaflow/internal/pack"
)

const mappedBLIF = `
.model m
.inputs a b c d clk_unused
.outputs o1 o2 q
.names a b c d t1
1111 1
.names a b t2
10 1
01 1
.names t1 t2 o1
11 1
.names t2 c o2
1- 1
-1 1
.names o1 o2 dq
11 1
.latch dq q re clk 0
.end
`

// legal runs the pack-stage rules, the only legality check of a packing.
func legal(p *pack.Packing) error {
	return check.RunStage(check.StagePack, &check.Artifacts{Packing: p}).Err()
}

func parse(t *testing.T, text string) *netlist.Netlist {
	t.Helper()
	nl, err := netlist.ParseBLIF(text)
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

func TestFormBLEsPairsLUTWithFF(t *testing.T) {
	nl := parse(t, mappedBLIF)
	bles, err := pack.FormBLEs(nl)
	if err != nil {
		t.Fatal(err)
	}
	// dq feeds only latch q -> one merged BLE named q.
	var merged *pack.BLE
	for _, b := range bles {
		if b.Name() == "q" {
			merged = b
		}
	}
	if merged == nil || merged.LUT == nil || merged.LUT.Name != "dq" || !merged.Registered() {
		t.Fatalf("LUT+FF not merged: %+v", merged)
	}
	// 5 LUTs + 1 latch, one pair merged -> 5 BLEs.
	if len(bles) != 5 {
		t.Fatalf("BLE count = %d, want 5", len(bles))
	}
}

func TestFormBLEsKeepsSharedLUTSeparate(t *testing.T) {
	nl := parse(t, `
.model s
.inputs a b
.outputs q x
.names a b d
11 1
.names d b x
10 1
.latch d q re clk 0
.end`)
	bles, err := pack.FormBLEs(nl)
	if err != nil {
		t.Fatal(err)
	}
	// d has fanout 2 (latch q and x): cannot merge -> 3 BLEs.
	if len(bles) != 3 {
		t.Fatalf("BLE count = %d, want 3", len(bles))
	}
	for _, b := range bles {
		if b.Name() == "q" && b.LUT != nil {
			t.Fatal("shared LUT merged into FF BLE")
		}
	}
}

func TestFormBLEsKeepsOutputLUTSeparate(t *testing.T) {
	nl := parse(t, `
.model s
.inputs a b
.outputs q d
.names a b d
11 1
.latch d q re clk 0
.end`)
	bles, err := pack.FormBLEs(nl)
	if err != nil {
		t.Fatal(err)
	}
	// d is a primary output: merging would hide the combinational signal.
	if len(bles) != 2 {
		t.Fatalf("BLE count = %d, want 2", len(bles))
	}
}

func TestPackRespectsConstraints(t *testing.T) {
	nl := parse(t, mappedBLIF)
	p, err := pack.Pack(nl, pack.PaperParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := legal(p); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range p.Clusters {
		total += len(c.BLEs)
		if len(c.BLEs) > 5 || len(c.Inputs) > 12 {
			t.Errorf("cluster %d: %d BLEs, %d inputs", c.ID, len(c.BLEs), len(c.Inputs))
		}
	}
	if total != len(p.BLEs) {
		t.Errorf("clustered %d of %d BLEs", total, len(p.BLEs))
	}
}

func TestPackTinyClusterForcesSplit(t *testing.T) {
	nl := parse(t, mappedBLIF)
	p, err := pack.Pack(nl, pack.Params{N: 1, K: 4, I: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Clusters) != len(p.BLEs) {
		t.Fatalf("N=1 must give one BLE per cluster: %d clusters, %d BLEs", len(p.Clusters), len(p.BLEs))
	}
}

func TestPackRejectsWideLUT(t *testing.T) {
	nl := parse(t, `
.model w
.inputs a b c d e
.outputs o
.names a b c d e o
11111 1
.end`)
	if _, err := pack.Pack(nl, pack.PaperParams()); err == nil {
		t.Fatal("5-input LUT accepted at K=4")
	}
}

func TestPackRejectsBadParams(t *testing.T) {
	nl := parse(t, mappedBLIF)
	for _, bad := range []pack.Params{{N: 0, K: 4, I: 12}, {N: 5, K: 1, I: 12}, {N: 5, K: 4, I: 2}} {
		if _, err := pack.Pack(nl, bad); err == nil {
			t.Errorf("params %+v accepted", bad)
		}
	}
}

func TestInputsForUtilization(t *testing.T) {
	// Paper Eq. (1): K=4, N=5 -> I=12.
	if got := pack.InputsForUtilization(4, 5); got != 12 {
		t.Errorf("I(4,5) = %d, want 12", got)
	}
	if got := pack.InputsForUtilization(4, 7); got != 16 {
		t.Errorf("I(4,7) = %d, want 16", got)
	}
}

func TestExternalNets(t *testing.T) {
	nl := parse(t, mappedBLIF)
	p, err := pack.Pack(nl, pack.PaperParams())
	if err != nil {
		t.Fatal(err)
	}
	nets := p.ExternalNets()
	bySignal := make(map[string]*pack.Net)
	for _, n := range nets {
		bySignal[n.Signal] = n
	}
	for _, in := range []string{"a", "b", "c", "d"} {
		n := bySignal[in]
		if n == nil {
			t.Fatalf("no net for input %s", in)
		}
		if n.SourceCluster != nil {
			t.Errorf("input %s has a source cluster", in)
		}
	}
	for _, o := range []string{"o1", "o2", "q"} {
		n := bySignal[o]
		if n == nil || !n.IsPrimaryOutput {
			t.Errorf("output %s missing or unmarked", o)
		}
		if n != nil && n.SourceCluster == nil {
			t.Errorf("output %s has no source cluster", o)
		}
	}
}

// TestPackPropertyRandom checks packing invariants across random K-LUT
// netlists and parameter combinations.
func TestPackPropertyRandom(t *testing.T) {
	f := func(seed int64, nRaw, iRaw uint8) bool {
		n := 1 + int(nRaw)%8
		k := 4
		i := k + int(iRaw)%(k*(n+1)/2+1)
		nl := randomLUTNetlist(seed, 8, 30, k)
		p, err := pack.Pack(nl, pack.Params{N: n, K: k, I: i})
		if err != nil {
			return false
		}
		return legal(p) == nil && p.Utilization() > 0 && p.Utilization() <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

func randomLUTNetlist(seed int64, nIn, nLUT, k int) *netlist.Netlist {
	rng := rand.New(rand.NewSource(seed))
	nl := netlist.New("rnd")
	var pool []*netlist.Node
	for i := 0; i < nIn; i++ {
		in, _ := nl.AddInput(sig("i", i))
		pool = append(pool, in)
	}
	for i := 0; i < nLUT; i++ {
		nf := 1 + rng.Intn(k)
		fanin := make([]*netlist.Node, 0, nf)
		seen := map[*netlist.Node]bool{}
		for len(fanin) < nf {
			c := pool[rng.Intn(len(pool))]
			if !seen[c] {
				seen[c] = true
				fanin = append(fanin, c)
			}
		}
		tt := make([]bool, 1<<uint(nf))
		for j := range tt {
			tt[j] = rng.Intn(2) == 1
		}
		tt[0] = false
		tt[len(tt)-1] = true
		n, _ := nl.AddLogic(sig("l", i), fanin, netlist.CoverFromTruthTable(tt, nf))
		pool = append(pool, n)
		if rng.Intn(4) == 0 {
			q, _ := nl.AddLatch(sig("q", i), n, '0', "clk")
			pool = append(pool, q)
		}
	}
	for i := 0; i < 3; i++ {
		nl.MarkOutput(pool[len(pool)-1-i].Name)
	}
	return nl
}

func sig(p string, i int) string {
	return p + string(rune('a'+i/26)) + string(rune('a'+i%26))
}

func TestUtilizationEquationGives98Percent(t *testing.T) {
	// The paper claims I=(K/2)(N+1) achieves ~98% BLE utilization. On random
	// netlists the greedy packer should fill clusters well; assert a softer
	// bound (>= 70%) to keep the test robust, and assert that shrinking I
	// strictly below the equation value reduces utilization.
	var utilEq, utilSmall float64
	runs := 0
	for seed := int64(0); seed < 5; seed++ {
		nl := randomLUTNetlist(seed, 10, 60, 4)
		pEq, err := pack.Pack(nl.Clone(), pack.Params{N: 5, K: 4, I: 12})
		if err != nil {
			t.Fatal(err)
		}
		pSmall, err := pack.Pack(nl.Clone(), pack.Params{N: 5, K: 4, I: 5})
		if err != nil {
			t.Fatal(err)
		}
		utilEq += pEq.Utilization()
		utilSmall += pSmall.Utilization()
		runs++
	}
	utilEq /= float64(runs)
	utilSmall /= float64(runs)
	if utilEq < 0.70 {
		t.Errorf("utilization at I=12: %.2f", utilEq)
	}
	if utilSmall >= utilEq {
		t.Errorf("starving inputs did not reduce utilization: %.2f vs %.2f", utilSmall, utilEq)
	}
}

// TestGroupGatedConcentratesRegisters checks the power-aware attraction:
// with GroupGated set, packing random register-heavy netlists must never
// spread flip-flops over more clusters than the baseline packer does, and
// must strictly reduce the clocked-cluster count on at least one instance
// (so the bonus demonstrably changes packing decisions). All other packing
// invariants must keep holding.
func TestGroupGatedConcentratesRegisters(t *testing.T) {
	improved := false
	for seed := int64(0); seed < 8; seed++ {
		nl := randomLUTNetlist(seed, 10, 60, 4)
		base, err := pack.Pack(nl.Clone(), pack.Params{N: 5, K: 4, I: 12})
		if err != nil {
			t.Fatal(err)
		}
		gated, err := pack.Pack(nl.Clone(), pack.Params{N: 5, K: 4, I: 12, GroupGated: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := legal(gated); err != nil {
			t.Fatalf("seed %d: gated packing invalid: %v", seed, err)
		}
		b, g := base.ClockedClusters(), gated.ClockedClusters()
		if g > b {
			t.Errorf("seed %d: GroupGated raised clocked clusters %d -> %d", seed, b, g)
		}
		if g < b {
			improved = true
		}
		// Registered BLEs must be conserved: grouping moves FFs, never
		// drops or duplicates them.
		count := func(p *pack.Packing) int {
			n := 0
			for _, ble := range p.BLEs {
				if ble.Registered() {
					n++
				}
			}
			return n
		}
		if count(base) != count(gated) {
			t.Errorf("seed %d: registered BLE count changed %d -> %d", seed, count(base), count(gated))
		}
	}
	if !improved {
		t.Error("GroupGated never reduced clocked clusters on any seed; bonus has no effect")
	}
}

// TestGroupGatedDeterministic packs the same netlist twice with GroupGated
// and requires identical cluster assignments.
func TestGroupGatedDeterministic(t *testing.T) {
	nl := randomLUTNetlist(3, 10, 60, 4)
	a, err := pack.Pack(nl.Clone(), pack.Params{N: 5, K: 4, I: 12, GroupGated: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := pack.Pack(nl.Clone(), pack.Params{N: 5, K: 4, I: 12, GroupGated: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Clusters) != len(b.Clusters) {
		t.Fatalf("cluster counts differ: %d vs %d", len(a.Clusters), len(b.Clusters))
	}
	for i := range a.Clusters {
		ca, cb := a.Clusters[i], b.Clusters[i]
		if len(ca.BLEs) != len(cb.BLEs) {
			t.Fatalf("cluster %d sizes differ", i)
		}
		for j := range ca.BLEs {
			if ca.BLEs[j].Name() != cb.BLEs[j].Name() {
				t.Fatalf("cluster %d BLE %d differs: %q vs %q", i, j, ca.BLEs[j].Name(), cb.BLEs[j].Name())
			}
		}
	}
}
