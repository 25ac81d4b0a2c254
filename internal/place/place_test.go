package place_test

import (
	"errors"
	"testing"

	"fpgaflow/internal/arch"
	"fpgaflow/internal/check"
	"fpgaflow/internal/netlist"
	"fpgaflow/internal/pack"
	"fpgaflow/internal/place"
)

const testBLIF = `
.model t
.inputs a b c d
.outputs o1 o2
.names a b x1
11 1
.names c d x2
10 1
01 1
.names x1 x2 o1
1- 1
-1 1
.names x1 c o2
11 1
.end
`

// legal runs the place-stage rules, the only legality check of a
// placement.
func legal(p *place.Problem, pl *place.Placement) error {
	rep := check.RunStage(check.StagePlace, &check.Artifacts{Problem: p, Placement: pl})
	if rep.RulesRun == 0 {
		return errors.New("no place-stage rule applies")
	}
	return rep.Err()
}

func buildProblem(t *testing.T, params pack.Params) *place.Problem {
	t.Helper()
	nl, err := netlist.ParseBLIF(testBLIF)
	if err != nil {
		t.Fatal(err)
	}
	pk, err := pack.Pack(nl, params)
	if err != nil {
		t.Fatal(err)
	}
	a := arch.Paper()
	a.CLB.N, a.CLB.K, a.CLB.I = params.N, params.K, params.I
	p, err := place.NewProblem(a, pk)
	if err != nil {
		t.Fatal(err)
	}
	p.AutoSize()
	return p
}

func TestNewProblemStructure(t *testing.T) {
	p := buildProblem(t, pack.Params{N: 1, K: 4, I: 4})
	clbs, pads := p.CountKinds()
	if clbs != 4 { // x1 x2 o1 o2, one per cluster at N=1
		t.Errorf("clbs = %d, want 4", clbs)
	}
	if pads != 6 { // 4 in + 2 out
		t.Errorf("pads = %d, want 6", pads)
	}
	// Every net: source first, at least one sink, all block refs valid.
	for _, n := range p.Nets {
		if len(n.Blocks) < 2 {
			t.Errorf("net %s has %d terminals", n.Signal, len(n.Blocks))
		}
		for _, b := range n.Blocks {
			if b < 0 || b >= len(p.Blocks) {
				t.Fatalf("net %s references block %d", n.Signal, b)
			}
		}
	}
	// Block->net back references consistent.
	for _, b := range p.Blocks {
		for _, ni := range b.Nets {
			found := false
			for _, bb := range p.Nets[ni].Blocks {
				if bb == b.ID {
					found = true
				}
			}
			if !found {
				t.Errorf("block %s lists net %d it is not on", b.Name, ni)
			}
		}
	}
}

func TestPlaceLegal(t *testing.T) {
	p := buildProblem(t, pack.Params{N: 1, K: 4, I: 4})
	pl, err := place.Place(p, place.Options{Seed: 1, InnerNum: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := legal(p, pl); err != nil {
		t.Fatal(err)
	}
	if pl.Cost <= 0 {
		t.Errorf("cost = %v", pl.Cost)
	}
}

func TestPlaceDeterministic(t *testing.T) {
	p1 := buildProblem(t, pack.Params{N: 1, K: 4, I: 4})
	p2 := buildProblem(t, pack.Params{N: 1, K: 4, I: 4})
	pl1, err := place.Place(p1, place.Options{Seed: 7, InnerNum: 1})
	if err != nil {
		t.Fatal(err)
	}
	pl2, err := place.Place(p2, place.Options{Seed: 7, InnerNum: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range pl1.Loc {
		if pl1.Loc[i] != pl2.Loc[i] {
			t.Fatalf("block %d: %v vs %v", i, pl1.Loc[i], pl2.Loc[i])
		}
	}
}

func TestPlaceImprovesOverRandom(t *testing.T) {
	p := buildProblem(t, pack.Params{N: 1, K: 4, I: 4})
	random, err := place.Place(p, place.Options{Seed: 3, FixedSeedOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	annealed, err := place.Place(p, place.Options{Seed: 3, InnerNum: 2})
	if err != nil {
		t.Fatal(err)
	}
	if annealed.Cost > random.Cost {
		t.Errorf("annealing worsened cost: %.2f -> %.2f", random.Cost, annealed.Cost)
	}
}

func TestPlaceRejectsOverflow(t *testing.T) {
	p := buildProblem(t, pack.Params{N: 1, K: 4, I: 4})
	p.Arch.Rows, p.Arch.Cols = 1, 1 // 1 CLB site for 4 clusters
	if _, err := place.Place(p, place.Options{Seed: 1}); err == nil {
		t.Fatal("overfull grid accepted")
	}
}

func TestCrossingCount(t *testing.T) {
	if place.CrossingCount(2) != 1 || place.CrossingCount(3) != 1 {
		t.Error("small nets should have q=1")
	}
	if place.CrossingCount(10) <= place.CrossingCount(4) {
		t.Error("q must grow with terminals")
	}
	if place.CrossingCount(50) <= place.CrossingCount(10) {
		t.Error("q must extrapolate beyond the table")
	}
}

func TestPackedClustersPlaceTogether(t *testing.T) {
	// With the paper CLB (N=5) the whole test design fits in one cluster;
	// the only nets are pad connections.
	p := buildProblem(t, pack.PaperParams())
	clbs, _ := p.CountKinds()
	if clbs != 1 {
		t.Fatalf("clbs = %d, want 1", clbs)
	}
	pl, err := place.Place(p, place.Options{Seed: 1, InnerNum: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := legal(p, pl); err != nil {
		t.Fatal(err)
	}
}

func TestCriticalityWeights(t *testing.T) {
	// Build a netlist with one deep chain and one shallow side branch; the
	// chain nets must get larger weights.
	nl, err := netlist.ParseBLIF(`
.model chainy
.inputs a b
.outputs deep shallow
.names a b g1
11 1
.names g1 b g2
10 1
01 1
.names g2 b g3
11 1
.names g3 b deep
1- 1
-1 1
.names a b shallow
-1 1
.end`)
	if err != nil {
		t.Fatal(err)
	}
	pk, err := pack.Pack(nl, pack.Params{N: 1, K: 4, I: 4})
	if err != nil {
		t.Fatal(err)
	}
	a := arch.Paper()
	a.CLB.N, a.CLB.I = 1, 4
	p, err := place.NewProblem(a, pk)
	if err != nil {
		t.Fatal(err)
	}
	w := place.CriticalityWeights(pk, p, 8)
	if len(w) != len(p.Nets) {
		t.Fatalf("%d weights for %d nets", len(w), len(p.Nets))
	}
	byName := map[string]float64{}
	for i, n := range p.Nets {
		if w[i] < 1 || w[i] > 9 {
			t.Errorf("net %s weight %v out of [1,9]", n.Signal, w[i])
		}
		byName[n.Signal] = w[i]
	}
	if byName["g2"] <= byName["shallow"] {
		t.Errorf("deep net g2 (%.2f) not weighted above shallow (%.2f)",
			byName["g2"], byName["shallow"])
	}
}

func TestTimingDrivenPlacementRuns(t *testing.T) {
	p := buildProblem(t, pack.Params{N: 1, K: 4, I: 4})
	// Weight length mismatch must be rejected.
	if _, err := place.Place(p, place.Options{Seed: 1, Weights: []float64{1}}); err == nil {
		t.Fatal("bad weight vector accepted")
	}
	w := make([]float64, len(p.Nets))
	for i := range w {
		w[i] = 1 + float64(i%3)
	}
	pl, err := place.Place(p, place.Options{Seed: 1, InnerNum: 1, Weights: w})
	if err != nil {
		t.Fatal(err)
	}
	if err := legal(p, pl); err != nil {
		t.Fatal(err)
	}
}

func TestPlaceBestDeterministicAndNoWorse(t *testing.T) {
	p := buildProblem(t, pack.Params{N: 1, K: 4, I: 4})
	single, err := place.Place(p, place.Options{Seed: 11, InnerNum: 1})
	if err != nil {
		t.Fatal(err)
	}
	b1, err := place.PlaceBest(p, place.Options{Seed: 11, InnerNum: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := place.PlaceBest(p, place.Options{Seed: 11, InnerNum: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if b1.Cost != b2.Cost {
		t.Fatalf("parallel placement nondeterministic: %v vs %v", b1.Cost, b2.Cost)
	}
	if b1.Cost > single.Cost {
		t.Errorf("best-of-4 cost %.2f worse than single seed %.2f", b1.Cost, single.Cost)
	}
	if err := legal(p, b1); err != nil {
		t.Fatal(err)
	}
}

func TestFixedBlocks(t *testing.T) {
	p := buildProblem(t, pack.Params{N: 1, K: 4, I: 4})
	fixed := map[string]place.Location{
		"a":      {0, 1, 0},
		"out:o1": {1, 0, 1},
	}
	pl, err := place.Place(p, place.Options{Seed: 4, InnerNum: 2, Fixed: fixed})
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range fixed {
		id := p.BlockByName(name)
		if pl.Loc[id] != want {
			t.Errorf("%s moved to %v, want %v", name, pl.Loc[id], want)
		}
	}
	if err := legal(p, pl); err != nil {
		t.Fatal(err)
	}
	// Errors: unknown block, site collision, wrong site kind.
	if _, err := place.Place(p, place.Options{Seed: 1, Fixed: map[string]place.Location{"ghost": {0, 1, 0}}}); err == nil {
		t.Error("unknown fixed block accepted")
	}
	if _, err := place.Place(p, place.Options{Seed: 1, Fixed: map[string]place.Location{
		"a": {0, 1, 0}, "b": {0, 1, 0}}}); err == nil {
		t.Error("fixed collision accepted")
	}
	if _, err := place.Place(p, place.Options{Seed: 1, Fixed: map[string]place.Location{"a": {1, 1, 0}}}); err == nil {
		t.Error("pad pinned to logic site accepted")
	}
}
