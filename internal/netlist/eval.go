package netlist

import "fmt"

// evalCube reports whether the cube covers the given input assignment.
func evalCube(cube Cube, in []bool) bool {
	for i, lit := range cube {
		switch lit {
		case LitOne:
			if !in[i] {
				return false
			}
		case LitZero:
			if in[i] {
				return false
			}
		}
	}
	return true
}

// EvalCover evaluates the cover on the given input assignment.
func EvalCover(c Cover, in []bool) bool {
	hit := false
	for _, cube := range c.Cubes {
		if evalCube(cube, in) {
			hit = true
			break
		}
	}
	if c.OnSet() {
		return hit
	}
	return !hit
}

// TableWords returns the number of 64-row words in a truth table over k
// inputs. Row r of a table is bit r&63 of word r>>6.
func TableWords(k int) int { return (1<<uint(k) + 63) >> 6 }

// inputPattern[i] is input i's column over the 64 rows of one word: row r
// holds bit i of r.
var inputPattern = [6]uint64{
	0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000,
}

// ColumnWord returns word w of input i's column in a truth table: row r
// holds bit i of r. The word does not depend on the table's width, so a
// table of fewer than 64 rows repeats its rows across the word.
func ColumnWord(i, w int) uint64 {
	switch {
	case i < 6:
		return inputPattern[i]
	case w>>uint(i-6)&1 != 0:
		return ^uint64(0)
	}
	return 0
}

// EvalCoverWords evaluates cover c on len(out) words of rows at once, the
// word-wide counterpart of EvalCover: in[i] is input i's column (at least
// len(out) words), and out receives the cover's column.
func EvalCoverWords(c Cover, in [][]uint64, out []uint64) {
	for w := range out {
		var hit uint64
		for _, cube := range c.Cubes {
			m := ^uint64(0)
			for i, lit := range cube {
				switch lit {
				case LitOne:
					m &= in[i][w]
				case LitZero:
					m &^= in[i][w]
				}
			}
			hit |= m
		}
		if !c.OnSet() {
			hit = ^hit
		}
		out[w] = hit
	}
}

// TruthTable returns the function of a logic node as a bit vector indexed by
// the fanin assignment (fanin 0 is bit 0 of the index). Nodes with more than
// 20 fanins are rejected to bound memory.
func TruthTable(n *Node) ([]bool, error) {
	if n.Kind != KindLogic {
		return nil, fmt.Errorf("truth table of non-logic node %q", n.Name)
	}
	k := len(n.Fanin)
	if k > 20 {
		return nil, fmt.Errorf("node %q: %d fanins exceeds truth-table limit", n.Name, k)
	}
	nw := TableWords(k)
	words := make([]uint64, (k+1)*nw)
	in := make([][]uint64, k)
	for i := range in {
		in[i] = words[i*nw : (i+1)*nw]
		for w := range in[i] {
			in[i][w] = ColumnWord(i, w)
		}
	}
	out := words[k*nw:]
	EvalCoverWords(n.Cover, in, out)
	tt := make([]bool, 1<<uint(k))
	for r := range tt {
		tt[r] = out[r>>6]>>uint(r&63)&1 != 0
	}
	return tt, nil
}

// CoverFromTruthTable builds an on-set cover (one cube per minterm) for a
// k-input function. Callers usually minimize it afterwards.
func CoverFromTruthTable(tt []bool, k int) Cover {
	var c Cover
	c.Value = LitOne
	for m, b := range tt {
		if !b {
			continue
		}
		cube := make(Cube, k)
		for i := 0; i < k; i++ {
			if m&(1<<i) != 0 {
				cube[i] = LitOne
			} else {
				cube[i] = LitZero
			}
		}
		c.Cubes = append(c.Cubes, cube)
	}
	return c
}
