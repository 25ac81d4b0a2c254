// Package logic implements the technology-independent optimization stage of
// the flow (the role SIS plays in the paper): two-level minimization of node
// covers (Quine–McCluskey with greedy prime selection), cube containment and
// merging for wide nodes, node elimination/collapsing, structural hashing,
// constant propagation, and decomposition into two-input gates ahead of LUT
// mapping.
package logic

import (
	"fmt"
	"math/bits"
	"sort"

	"fpgaflow/internal/netlist"
)

// qmLimit is the widest function minimized exactly; wider covers get the
// cheap cube-merging pass instead.
const qmLimit = 10

// qmWords is the number of 64-row words in a qmLimit-input truth table.
const qmWords = 1 << (qmLimit - 6)

// implicant is a cube in (value, mask) form: mask bit 1 = don't care.
type implicant struct {
	value, mask uint32
}

// Effort counts the exact-minimization work of one Optimize call: the
// deterministic SIS effort counters the flow reports on its trace.
type Effort struct {
	// Minimizations is the number of truth tables minimized exactly.
	Minimizations int64
	// Combines is the number of implicant–parent pairs, the distance-1
	// merges of the Quine–McCluskey combining step: an implicant with p
	// don't-care variables has p parents one variable narrower.
	Combines int64
	// Selected is the number of prime implicants chosen for covers.
	Selected int64
}

// qmScratch holds the dense Quine–McCluskey engine's buffers and effort
// counters. One lives for one Optimize (or MinimizeTruthTable) call and is
// never shared, so concurrent flows never touch each other's state.
//
// Truth tables are netlist.TableWords(k) words, row r at bit r&63 of word
// r>>6. A table of fewer than 64 rows uses the low bits of one word.
type qmScratch struct {
	cols   []uint64   // input i's column at cols[i*qmWords:], filled once
	in     [][]uint64 // a cover's input columns
	tt, gv []uint64   // a cover's table and a collapsed node's column
	// impl holds one table per mask M, at impl[M*nw:]: bit v is set when
	// the cube (v, M) is an implicant (v has no bit of M set). count[M]
	// is its population; 0 marks an empty mask, whose words are stale.
	impl  []uint64
	count []int
	// cov holds one table per prime, at cov[i*nw:]: the minterms it
	// covers. work holds the three tables of the selection.
	cov, work      []uint64
	primes, chosen []implicant
	effort         Effort
}

// column returns input i's column as a table of nw words.
func (s *qmScratch) column(i, nw int) []uint64 {
	if s.cols == nil {
		s.cols = make([]uint64, qmLimit*qmWords)
		for j := range s.cols {
			s.cols[j] = netlist.ColumnWord(j/qmWords, j%qmWords)
		}
	}
	return s.cols[i*qmWords:][:nw]
}

// minimizeCover returns a minimal (exact primes, greedy selection) on-set
// cover equivalent to the input cover over k variables. Functions wider
// than qmLimit variables are reduced by cube containment and distance-1
// merging only.
func (s *qmScratch) minimizeCover(c netlist.Cover, k int) netlist.Cover {
	if k > qmLimit {
		return reduceWide(c, k)
	}
	return s.minimize(s.truthTableOfCover(c, k), k)
}

// truthTableOfCover evaluates the cover over k <= qmLimit inputs into a
// table valid until the next call.
func (s *qmScratch) truthTableOfCover(c netlist.Cover, k int) []uint64 {
	nw := netlist.TableWords(k)
	s.in = s.in[:0]
	for i := 0; i < k; i++ {
		s.in = append(s.in, s.column(i, nw))
	}
	s.tt = grow(s.tt, nw)
	netlist.EvalCoverWords(c, s.in, s.tt)
	return s.tt
}

// MinimizeTruthTable builds a minimal on-set cover for the function given as
// a truth table over k variables (k <= qmLimit): netlist.TableWords(k)
// words, row r at bit r&63 of word r>>6. Bits past row 2^k are ignored.
func MinimizeTruthTable(tt []uint64, k int) netlist.Cover {
	return new(qmScratch).minimize(tt, k)
}

// grow returns buf resized to n words, reallocating only when it is too
// small. The words' contents are unspecified.
func grow(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	return buf[:n]
}

// popcount returns the number of set bits in a table.
func popcount(t []uint64) int {
	n := 0
	for _, x := range t {
		n += bits.OnesCount64(x)
	}
	return n
}

// load copies the k-input function tt into impl's mask-0 table, clearing
// the bits past row 2^k, and returns its minterm count.
func (s *qmScratch) load(tt []uint64, k int) int {
	nw := netlist.TableWords(k)
	s.impl = grow(s.impl, nw<<uint(k))
	copy(s.impl[:nw], tt)
	if k < 6 {
		s.impl[0] &= 1<<(1<<uint(k)) - 1
	}
	return popcount(s.impl[:nw])
}

func (s *qmScratch) minimize(tt []uint64, k int) netlist.Cover {
	s.effort.Minimizations++
	out := netlist.Cover{Value: netlist.LitOne}
	switch n := s.load(tt, k); {
	case n == 0:
		return out // constant 0: empty on-set
	case n == 1<<uint(k):
		out.Cubes = []netlist.Cube{implicantToCube(implicant{0, 1<<uint(k) - 1}, k)}
		return out
	}
	for _, im := range s.selectCover(s.primeImplicants(tt, k), k) {
		out.Cubes = append(out.Cubes, implicantToCube(im, k))
	}
	sortCubes(out.Cubes)
	return out
}

// primeImplicants returns every prime implicant of the k-input function
// tt, ordered by mask descending and then value ascending (the order
// selectCover breaks ties in); the slice is reused by the next call.
//
// A cube (v, M) is an implicant when (v, M\b) and (v|b, M\b) both are,
// so impl[M] = impl[M\b] & (impl[M\b] shifted down by row 2^b). An
// implicant is prime when no wider implicant contains it: prime[M] is
// impl[M] less each impl[M∪b] (b not in M) and its copy shifted up by
// row 2^b.
func (s *qmScratch) primeImplicants(tt []uint64, k int) []implicant {
	nw, masks := netlist.TableWords(k), 1<<uint(k)
	if len(s.count) < masks {
		s.count = make([]int, masks)
	}
	s.count[0] = s.load(tt, k)
	//fpga:hotloop
	for m := 1; m < masks; m++ {
		// An implicant's parents are all implicants, so one empty parent
		// empties the mask.
		n, rest := 0, m
		for rest != 0 && s.count[m&^(rest&-rest)] != 0 {
			rest &= rest - 1
		}
		if rest == 0 {
			b := bits.TrailingZeros(uint(m))
			src, dst := s.impl[(m&^(1<<uint(b)))*nw:][:nw], s.impl[m*nw:][:nw]
			if b < 6 {
				sh, low := uint(1)<<uint(b), ^netlist.ColumnWord(b, 0)
				for w, x := range src {
					dst[w] = x & (x >> sh) & low
					n += bits.OnesCount64(dst[w])
				}
			} else {
				st := 1 << uint(b-6)
				for w, x := range src {
					dst[w] = 0
					if w&st == 0 {
						dst[w] = x & src[w|st]
						n += bits.OnesCount64(dst[w])
					}
				}
			}
		}
		s.count[m] = n
		s.effort.Combines += int64(bits.OnesCount(uint(m)) * n)
	}
	acc := grow(s.work, nw)
	primes := s.primes[:0]
	//fpga:hotloop
	for m := masks - 1; m >= 0; m-- {
		if s.count[m] == 0 {
			continue
		}
		copy(acc, s.impl[m*nw:][:nw])
		for free := (masks - 1) &^ m; free != 0; free &= free - 1 {
			b := bits.TrailingZeros(uint(free))
			if up := m | 1<<uint(b); s.count[up] != 0 {
				wide := s.impl[up*nw:][:nw]
				if b < 6 {
					sh := uint(1) << uint(b)
					for w, x := range wide {
						acc[w] &^= x | x<<sh
					}
				} else {
					st := 1 << uint(b-6)
					for w := range acc {
						acc[w] &^= wide[w&^st]
					}
				}
			}
		}
		for w, x := range acc {
			for ; x != 0; x &= x - 1 {
				primes = append(primes, implicant{uint32(w<<6 | bits.TrailingZeros64(x)), uint32(m)})
			}
		}
	}
	s.work, s.primes = acc, primes
	return primes
}

// selectCover picks the essential primes, then greedily the prime that
// covers the most uncovered minterms, the first such in primes' order.
// primes is primeImplicants' result, whose minterm count it reads; the
// returned slice is reused by the next call.
func (s *qmScratch) selectCover(primes []implicant, k int) []implicant {
	nw := netlist.TableWords(k)
	s.cov, s.work = grow(s.cov, len(primes)*nw), grow(s.work, 3*nw)
	clear(s.work)
	once, twice, covered := s.work[:nw], s.work[nw:2*nw], s.work[2*nw:]
	for i, p := range primes {
		c := s.cov[i*nw:][:nw]
		clear(c)
		c[p.value>>6] = 1 << (p.value & 63)
		for m := p.mask; m != 0; m &= m - 1 { // copy each row v to v|b
			if b := bits.TrailingZeros32(m); b < 6 {
				for w, x := range c {
					c[w] |= x << (1 << uint(b))
				}
			} else {
				for w := range c {
					c[w] |= c[w&^(1<<uint(b-6))]
				}
			}
		}
		for w, x := range c {
			twice[w] |= once[w] & x
			once[w] |= x
		}
	}
	// Essential primes: those covering a minterm no other prime covers.
	chosen := s.chosen[:0]
	for i, p := range primes {
		c := s.cov[i*nw:][:nw]
		for w, x := range c {
			if x&once[w]&^twice[w] != 0 {
				chosen = append(chosen, p)
				for w, x := range c {
					covered[w] |= x
				}
				break
			}
		}
	}
	// Greedy set cover for the remainder. A chosen prime gains nothing,
	// so it is never picked twice.
	for left := s.count[0] - popcount(covered); left > 0; {
		best, bestGain := -1, 0
		//fpga:hotloop
		for i := range primes {
			gain := 0
			for w, x := range s.cov[i*nw:][:nw] {
				gain += bits.OnesCount64(x &^ covered[w])
			}
			if gain > bestGain {
				best, bestGain = i, gain
			}
		}
		if best < 0 {
			break // unreachable: primes cover all minterms by construction
		}
		chosen = append(chosen, primes[best])
		for w, x := range s.cov[best*nw:][:nw] {
			covered[w] |= x
		}
		left -= bestGain
	}
	s.chosen = chosen
	s.effort.Selected += int64(len(chosen))
	return chosen
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
