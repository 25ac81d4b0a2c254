// Package logic implements the technology-independent optimization stage of
// the flow (the role SIS plays in the paper): two-level minimization of node
// covers (Quine–McCluskey with greedy prime selection), cube containment and
// merging for wide nodes, node elimination/collapsing, structural hashing,
// constant propagation, and decomposition into two-input gates ahead of LUT
// mapping.
package logic

import (
	"fmt"
	"sort"

	"fpgaflow/internal/netlist"
)

// qmLimit is the widest function minimized exactly; wider covers get the
// cheap cube-merging pass instead.
const qmLimit = 10

// implicant is a cube in (value, mask) form: mask bit 1 = don't care.
type implicant struct {
	value, mask uint32
}

func (im implicant) covers(minterm uint32) bool {
	return (minterm &^ im.mask) == im.value
}

// Effort counts the exact-minimization work of one Optimize call: the
// deterministic SIS effort counters the flow reports on its trace.
type Effort struct {
	// Minimizations is the number of truth tables minimized exactly.
	Minimizations int64
	// Combines is the number of distance-1 merges made by the
	// Quine–McCluskey combining step.
	Combines int64
}

// qmScratch holds the dense Quine–McCluskey engine's buffers and effort
// counters. One lives for one Optimize (or MinimizeTruthTable) call and is
// never shared, so concurrent flows never touch each other's state.
type qmScratch struct {
	// seen is a presence bitset over cubes, indexed by mask<<k | value
	// (4^k bits). It holds a level and the level it combines into at once:
	// their masks differ in popcount, so their indices never collide.
	seen      []uint64
	cur, next []implicant
	primes    []implicant
	minterms  []uint32
	effort    Effort
}

func (s *qmScratch) has(i uint32) bool { return s.seen[i>>6]&(1<<(i&63)) != 0 }
func (s *qmScratch) set(i uint32)      { s.seen[i>>6] |= 1 << (i & 63) }
func (s *qmScratch) clear(i uint32)    { s.seen[i>>6] &^= 1 << (i & 63) }

// minimizeCover returns a minimal (exact primes, greedy selection) on-set
// cover equivalent to the input cover over k variables. Functions wider
// than qmLimit variables are reduced by cube containment and distance-1
// merging only.
func (s *qmScratch) minimizeCover(c netlist.Cover, k int) netlist.Cover {
	if k > qmLimit {
		return reduceWide(c, k)
	}
	return s.minimize(truthTableOfCover(c, k), k)
}

// MinimizeTruthTable builds a minimal on-set cover for the function given as
// a truth table over k variables (k <= qmLimit).
func MinimizeTruthTable(tt []bool, k int) netlist.Cover {
	return new(qmScratch).minimize(tt, k)
}

func (s *qmScratch) minimize(tt []bool, k int) netlist.Cover {
	s.effort.Minimizations++
	out := netlist.Cover{Value: netlist.LitOne}
	minterms := s.minterms[:0]
	for m, b := range tt {
		if b {
			minterms = append(minterms, uint32(m))
		}
	}
	s.minterms = minterms
	if len(minterms) == 0 {
		return out // constant 0: empty on-set
	}
	if len(minterms) == 1<<uint(k) {
		out.Cubes = []netlist.Cube{make(netlist.Cube, k)}
		for i := range out.Cubes[0] {
			out.Cubes[0][i] = netlist.LitDC
		}
		if k == 0 {
			out.Cubes = []netlist.Cube{{}}
		}
		return out
	}
	primes := s.primeImplicants(minterms, k)
	chosen := selectCover(primes, minterms)
	for _, im := range chosen {
		out.Cubes = append(out.Cubes, implicantToCube(im, k))
	}
	sortCubes(out.Cubes)
	return out
}

// primeImplicants runs the Quine–McCluskey combining step over distinct
// minterms and returns every prime implicant (in no particular order; the
// returned slice is reused by the next call). Each level's cubes sit in a
// flat list and in the presence bitset, so a cube finds its distance-1
// partner across each free variable with one lookup: a level costs
// O(n·k) instead of a pairwise O(n²) scan.
func (s *qmScratch) primeImplicants(minterms []uint32, k int) []implicant {
	if words := (1<<uint(2*k) + 63) / 64; len(s.seen) < words {
		s.seen = make([]uint64, words)
	}
	full := uint32(1)<<uint(k) - 1
	cur, next, primes := s.cur[:0], s.next[:0], s.primes[:0]
	for _, m := range minterms {
		cur = append(cur, implicant{m, 0})
		s.set(m)
	}
	for len(cur) > 0 {
		next = next[:0]
		//fpga:hotloop
		for _, im := range cur {
			combined := false
			for free := full &^ im.mask; free != 0; free &= free - 1 {
				bit := free & -free
				if !s.has(im.mask<<uint(k) | (im.value ^ bit)) {
					continue
				}
				combined = true
				if im.value&bit != 0 {
					continue // the pair is merged from its lower cube
				}
				s.effort.Combines++
				merged := implicant{im.value, im.mask | bit}
				if idx := merged.mask<<uint(k) | merged.value; !s.has(idx) {
					s.set(idx)
					next = append(next, merged)
				}
			}
			if !combined {
				primes = append(primes, im)
			}
		}
		// Clear this level's bits by walking its cubes rather than
		// re-zeroing all 4^k bits.
		for _, im := range cur {
			s.clear(im.mask<<uint(k) | im.value)
		}
		cur, next = next, cur
	}
	s.cur, s.next, s.primes = cur, next, primes
	return primes
}

// selectCover picks essential primes then greedily covers the rest.
func selectCover(primes []implicant, minterms []uint32) []implicant {
	sort.Slice(primes, func(i, j int) bool {
		if primes[i].mask != primes[j].mask {
			return primes[i].mask > primes[j].mask // wider cubes first
		}
		return primes[i].value < primes[j].value
	})
	coveredBy := make(map[uint32][]int, len(minterms))
	for _, m := range minterms {
		for pi, p := range primes {
			if p.covers(m) {
				coveredBy[m] = append(coveredBy[m], pi)
			}
		}
	}
	selected := make(map[int]bool)
	covered := make(map[uint32]bool, len(minterms))
	// Essential primes.
	for _, m := range minterms {
		if len(coveredBy[m]) == 1 {
			selected[coveredBy[m][0]] = true
		}
	}
	for pi := range selected {
		for _, m := range minterms {
			if primes[pi].covers(m) {
				covered[m] = true
			}
		}
	}
	// Greedy set cover for the remainder.
	for len(covered) < len(minterms) {
		best, bestGain := -1, 0
		for pi, p := range primes {
			if selected[pi] {
				continue
			}
			gain := 0
			for _, m := range minterms {
				if !covered[m] && p.covers(m) {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = pi, gain
			}
		}
		if best < 0 {
			break // unreachable: primes cover all minterms by construction
		}
		selected[best] = true
		for _, m := range minterms {
			if primes[best].covers(m) {
				covered[m] = true
			}
		}
	}
	out := make([]implicant, 0, len(selected))
	for pi := range selected {
		out = append(out, primes[pi])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].value != out[j].value {
			return out[i].value < out[j].value
		}
		return out[i].mask < out[j].mask
	})
	return out
}

func implicantToCube(im implicant, k int) netlist.Cube {
	cube := make(netlist.Cube, k)
	for i := 0; i < k; i++ {
		bit := uint32(1) << uint(i)
		switch {
		case im.mask&bit != 0:
			cube[i] = netlist.LitDC
		case im.value&bit != 0:
			cube[i] = netlist.LitOne
		default:
			cube[i] = netlist.LitZero
		}
	}
	return cube
}

func truthTableOfCover(c netlist.Cover, k int) []bool {
	rows := 1 << uint(k)
	tt := make([]bool, rows)
	in := make([]bool, k)
	for m := 0; m < rows; m++ {
		for i := 0; i < k; i++ {
			in[i] = m&(1<<uint(i)) != 0
		}
		tt[m] = netlist.EvalCover(c, in)
	}
	return tt
}

// reduceWide removes contained cubes and merges distance-1 cube pairs for
// functions too wide for exact minimization. It preserves the cover's phase.
func reduceWide(c netlist.Cover, k int) netlist.Cover {
	cubes := make([]netlist.Cube, len(c.Cubes))
	for i, cube := range c.Cubes {
		cubes[i] = cube.Clone()
	}
	changed := true
	for changed {
		changed = false
		// Distance-1 merge: cubes differing in exactly one literal position
		// with complementary values merge to a DC at that position.
		for i := 0; i < len(cubes) && !changed; i++ {
			for j := i + 1; j < len(cubes); j++ {
				if pos, ok := mergeable(cubes[i], cubes[j]); ok {
					cubes[i][pos] = netlist.LitDC
					cubes = append(cubes[:j], cubes[j+1:]...)
					changed = true
					break
				}
			}
		}
		// Containment removal.
		for i := 0; i < len(cubes); i++ {
			for j := 0; j < len(cubes); j++ {
				if i != j && cubeContains(cubes[j], cubes[i]) {
					cubes = append(cubes[:i], cubes[i+1:]...)
					i--
					changed = true
					break
				}
			}
		}
	}
	sortCubes(cubes)
	return netlist.Cover{Cubes: cubes, Value: c.Value}
}

// mergeable reports whether a and b differ only in one position with 0/1
// values (all other positions identical), returning that position.
func mergeable(a, b netlist.Cube) (int, bool) {
	if len(a) != len(b) {
		return 0, false
	}
	pos := -1
	for i := range a {
		if a[i] == b[i] {
			continue
		}
		if a[i] == netlist.LitDC || b[i] == netlist.LitDC || pos >= 0 {
			return 0, false
		}
		pos = i
	}
	if pos < 0 {
		return 0, false
	}
	return pos, true
}

// cubeContains reports whether big covers every assignment small covers.
func cubeContains(big, small netlist.Cube) bool {
	if len(big) != len(small) {
		return false
	}
	for i := range big {
		if big[i] == netlist.LitDC {
			continue
		}
		if big[i] != small[i] {
			return false
		}
	}
	return true
}

func sortCubes(cubes []netlist.Cube) {
	sort.Slice(cubes, func(i, j int) bool { return string(cubes[i]) < string(cubes[j]) })
}

// CanonicalCover returns a canonical string form used for structural hashing.
func CanonicalCover(c netlist.Cover) string {
	cubes := make([]string, len(c.Cubes))
	for i, cube := range c.Cubes {
		cubes[i] = string(cube)
	}
	sort.Strings(cubes)
	phase := "+"
	if !c.OnSet() {
		phase = "-"
	}
	s := phase
	for _, c := range cubes {
		s += "|" + c
	}
	return s
}

// Literals counts the literal (non-DC) positions across the cover, the usual
// SIS cost metric.
func Literals(c netlist.Cover) int {
	n := 0
	for _, cube := range c.Cubes {
		for _, lit := range cube {
			if lit != netlist.LitDC {
				n++
			}
		}
	}
	return n
}

// checkWidth verifies all cubes have width k (defensive; callers pass
// covers straight off netlist nodes).
func checkWidth(c netlist.Cover, k int) error {
	for _, cube := range c.Cubes {
		if len(cube) != k {
			return fmt.Errorf("logic: cube width %d != %d", len(cube), k)
		}
	}
	return nil
}
