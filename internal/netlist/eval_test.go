package netlist

import (
	"math/rand"
	"testing"
)

// TestEvalCoverWordsMatchesScalar checks the word-wide evaluator against
// scalar EvalCover on every row of tables over k = 0…10 inputs: partial
// words below k = 6, on- and off-set covers, the empty cover and a cover
// holding an all-don't-care cube.
func TestEvalCoverWordsMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for k := 0; k <= 10; k++ {
		nw := TableWords(k)
		in := make([][]uint64, k)
		for i := range in {
			in[i] = make([]uint64, nw)
			for w := range in[i] {
				in[i][w] = ColumnWord(i, w)
			}
		}
		var covers []Cover
		for _, value := range []LitValue{LitOne, LitZero} {
			covers = append(covers, Cover{Value: value})
			dc := make(Cube, k)
			for i := range dc {
				dc[i] = LitDC
			}
			covers = append(covers, Cover{Cubes: []Cube{dc}, Value: value})
			for n := 0; n < 6; n++ {
				c := Cover{Value: value}
				for j := rng.Intn(6) + 1; j > 0; j-- {
					cube := make(Cube, k)
					for i := range cube {
						cube[i] = []LitValue{LitZero, LitOne, LitDC}[rng.Intn(3)]
					}
					c.Cubes = append(c.Cubes, cube)
				}
				covers = append(covers, c)
			}
		}
		out := make([]uint64, nw)
		row := make([]bool, k)
		for ci, c := range covers {
			EvalCoverWords(c, in, out)
			for r := 0; r < 1<<uint(k); r++ {
				for i := range row {
					row[i] = r>>uint(i)&1 != 0
				}
				if got, want := out[r>>6]>>uint(r&63)&1 != 0, EvalCover(c, row); got != want {
					t.Fatalf("k=%d cover %d %v (value %c) row %d: words %v, scalar %v", k, ci, c.Cubes, c.Value, r, got, want)
				}
			}
		}
	}
}
