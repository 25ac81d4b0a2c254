package place_test

import (
	"reflect"
	"testing"

	"fpgaflow/internal/pack"
	"fpgaflow/internal/place"
)

// TestPlaceWorkersDeterminism sweeps the annealer's evaluation worker
// count and requires the bit-identical placement from every value: the
// snapshot-evaluate/ordered-commit engine must make Workers a pure
// wall-time knob. Cost, move and acceptance statistics are part of the
// contract too — a drift there means the random stream or the commit
// order leaked scheduling.
func TestPlaceWorkersDeterminism(t *testing.T) {
	for _, n := range []int{1, 2} {
		p := buildProblem(t, pack.Params{N: n, K: 4, I: 4})
		var ref *place.Placement
		for _, w := range []int{0, 1, 2, 4, 8} {
			pl, err := place.Place(p, place.Options{Seed: 7, InnerNum: 2, Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if err := legal(p, pl); err != nil {
				t.Fatalf("workers=%d: %v", w, err)
			}
			if ref == nil {
				ref = pl
				continue
			}
			if !reflect.DeepEqual(ref.Loc, pl.Loc) {
				t.Errorf("N=%d workers=%d: locations differ from workers=0 run", n, w)
			}
			if ref.Cost != pl.Cost || ref.Moves != pl.Moves || ref.Accepted != pl.Accepted {
				t.Errorf("N=%d workers=%d: stats differ: cost %v vs %v, moves %d vs %d, accepted %d vs %d",
					n, w, pl.Cost, ref.Cost, pl.Moves, ref.Moves, pl.Accepted, ref.Accepted)
			}
		}
	}
}
