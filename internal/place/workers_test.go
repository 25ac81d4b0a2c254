package place_test

import (
	"fmt"
	"os"
	"reflect"
	"testing"

	"fpgaflow/internal/arch"
	"fpgaflow/internal/netlist"
	"fpgaflow/internal/pack"
	"fpgaflow/internal/place"
)

// TestPlaceWorkersDeterminism pins the serial move engine to the
// snapshot-evaluate/ordered-commit reference it replaced: at every
// reference worker count, Place must return the same locations, cost,
// move and acceptance statistics — a drift there means the random stream
// or the commit order changed. PlaceBest must return the same
// placement however many seeds it anneals at once.
func TestPlaceWorkersDeterminism(t *testing.T) {
	type tc struct {
		name string
		p    *place.Problem
		opts place.Options
	}
	var cases []tc
	for _, n := range []int{1, 2} {
		p := buildProblem(t, pack.Params{N: n, K: 4, I: 4})
		cases = append(cases, tc{name: fmt.Sprintf("N=%d", n), p: p, opts: place.Options{Seed: 7, InnerNum: 2}})
	}
	// rand64 fills whole move batches, so stale proposals and the batch
	// boundary are exercised; two pads are pinned, one CLB and one pad
	// site are defective and the nets are weighted.
	cp := rand64Problem(t)
	weights := make([]float64, len(cp.Nets))
	for i := range weights {
		weights[i] = 1 + float64(i%3)
	}
	pins := []place.Location{{X: 0, Y: 1}, {X: 5, Y: 4, Sub: 1}}
	fixed := map[string]place.Location{}
	for _, b := range cp.Blocks {
		if b.Kind != place.BlockCLB && len(fixed) < len(pins) {
			fixed[b.Name] = pins[len(fixed)]
		}
	}
	cases = append(cases, tc{name: "rand64-constrained", p: cp, opts: place.Options{Seed: 3, InnerNum: 1,
		Fixed: fixed, Bad: map[[2]int]bool{{2, 2}: true, {0, 3}: true}, Weights: weights}})

	for _, c := range cases {
		pl, err := place.Place(c.p, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := legal(c.p, pl); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, w := range []int{1, 2, 4, 8} {
			opts := c.opts
			opts.Workers = w
			ref, err := place.RefPlace(c.p, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref.Loc, pl.Loc) {
				t.Errorf("%s workers=%d: locations differ from the reference", c.name, w)
			}
			if ref.Cost != pl.Cost || ref.Moves != pl.Moves || ref.Accepted != pl.Accepted {
				t.Errorf("%s workers=%d: stats differ from the reference: cost %v vs %v, moves %d vs %d, accepted %d vs %d",
					c.name, w, pl.Cost, ref.Cost, pl.Moves, ref.Moves, pl.Accepted, ref.Accepted)
			}
		}
	}

	p := cases[0].p
	var best *place.Placement
	for _, w := range []int{1, 2, 4} {
		pl, err := place.PlaceBest(p, place.Options{Seed: 7, InnerNum: 2, Workers: w}, 4)
		if err != nil {
			t.Fatal(err)
		}
		if best == nil {
			best = pl
			continue
		}
		if !reflect.DeepEqual(best.Loc, pl.Loc) || best.Cost != pl.Cost {
			t.Errorf("PlaceBest workers=%d: placement differs from workers=1 (cost %v vs %v)", w, pl.Cost, best.Cost)
		}
	}
}

// rand64Problem packs the committed rand64 example onto the paper's
// architecture at the smallest grid that fits it (4x4, 15 CLBs).
func rand64Problem(t *testing.T) *place.Problem {
	t.Helper()
	src, err := os.ReadFile("../../examples/netlists/rand64.blif")
	if err != nil {
		t.Fatal(err)
	}
	nl, err := netlist.ParseBLIF(string(src))
	if err != nil {
		t.Fatal(err)
	}
	a := arch.Paper()
	pk, err := pack.Pack(nl, pack.Params{N: a.CLB.N, K: a.CLB.K, I: a.CLB.I})
	if err != nil {
		t.Fatal(err)
	}
	p, err := place.NewProblem(a, pk)
	if err != nil {
		t.Fatal(err)
	}
	p.AutoSize()
	return p
}
