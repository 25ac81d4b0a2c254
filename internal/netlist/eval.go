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
	rows := 1 << k
	tt := make([]bool, rows)
	in := make([]bool, k)
	for m := 0; m < rows; m++ {
		for i := 0; i < k; i++ {
			in[i] = m&(1<<i) != 0
		}
		tt[m] = EvalCover(n.Cover, in)
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
