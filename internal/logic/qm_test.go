package logic

import (
	"math/bits"
	"math/rand"
	"os"
	"slices"
	"sort"
	"testing"

	"fpgaflow/internal/netlist"
)

// covers reports whether the cube contains the minterm.
func (im implicant) covers(minterm uint32) bool {
	return (minterm &^ im.mask) == im.value
}

// tableOf packs minterms into a k-input word-wide truth table.
func tableOf(minterms []uint32, k int) []uint64 {
	tt := make([]uint64, netlist.TableWords(k))
	for _, m := range minterms {
		tt[m>>6] |= 1 << (m & 63)
	}
	return tt
}

// refSelectCover is the reference prime selection: essential primes, then
// a greedy set cover over maps, in (mask desc, value asc) order with the
// first maximum winning. The bitset selection must choose exactly its
// primes.
func refSelectCover(primes []implicant, minterms []uint32) []implicant {
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
	return out
}

// pairwisePrimes is the reference Quine–McCluskey combining step: every
// pair of same-level cubes is compared directly, with maps for dedup. The
// dense engine must return exactly its prime set and merge count.
func pairwisePrimes(minterms []uint32) (primes []implicant, combines int64) {
	current := make(map[implicant]bool, len(minterms))
	for _, m := range minterms {
		current[implicant{m, 0}] = true
	}
	for len(current) > 0 {
		combined := make(map[implicant]bool, len(current))
		next := make(map[implicant]bool)
		list := make([]implicant, 0, len(current))
		for im := range current {
			list = append(list, im)
		}
		for i := 0; i < len(list); i++ {
			for j := i + 1; j < len(list); j++ {
				a, b := list[i], list[j]
				if a.mask != b.mask {
					continue
				}
				diff := a.value ^ b.value
				if diff != 0 && diff&(diff-1) == 0 {
					next[implicant{a.value &^ diff, a.mask | diff}] = true
					combined[a], combined[b] = true, true
					combines++
				}
			}
		}
		for _, im := range list {
			if !combined[im] {
				primes = append(primes, im)
			}
		}
		current = next
	}
	return primes, combines
}

func sortedImplicants(ims []implicant) []implicant {
	out := append([]implicant(nil), ims...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].mask != out[j].mask {
			return out[i].mask < out[j].mask
		}
		return out[i].value < out[j].value
	})
	return out
}

// TestDensePrimesMatchPairwise checks the per-mask prime generation
// against the pairwise reference on seeded random functions of every width
// up to qmLimit, plus the empty, full and single-minterm functions. One
// scratch serves every call, so a table left stale by one function would
// corrupt the next.
func TestDensePrimesMatchPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var s qmScratch
	for k := 1; k <= qmLimit; k++ {
		rows := 1 << uint(k)
		all := make([]uint32, rows)
		for m := range all {
			all[m] = uint32(m)
		}
		cases := [][]uint32{nil, all, {0}, {uint32(rows - 1)}, {uint32(rng.Intn(rows))}}
		count := 24
		if k >= 9 {
			count = 10 // the O(n²) reference dominates at these widths
		}
		for i := 0; i < count; i++ {
			density := []float64{0.05, 0.3, 0.5, 0.7, 0.95}[i%5]
			var ms []uint32
			for m := 0; m < rows; m++ {
				if rng.Float64() < density {
					ms = append(ms, uint32(m))
				}
			}
			cases = append(cases, ms)
		}
		for ci, ms := range cases {
			want, wantCombines := pairwisePrimes(ms)
			before := s.effort.Combines
			got := sortedImplicants(s.primeImplicants(tableOf(ms, k), k))
			want = sortedImplicants(want)
			if len(got) != len(want) {
				t.Fatalf("k=%d case %d (%d minterms): %d primes, reference %d", k, ci, len(ms), len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("k=%d case %d: prime %d is %+v, reference %+v", k, ci, i, got[i], want[i])
				}
			}
			if n := s.effort.Combines - before; n != wantCombines {
				t.Fatalf("k=%d case %d: %d combines, reference %d", k, ci, n, wantCombines)
			}
		}
	}
}

// TestSelectCoverMatchesReference checks the bitset selection against the
// map-based reference on seeded random functions of every width up to
// qmLimit, at densities from 0.05 to 0.95, plus the parity, empty and full
// functions. One scratch serves every call.
func TestSelectCoverMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	var s qmScratch
	for k := 0; k <= qmLimit; k++ {
		rows := 1 << uint(k)
		var all, parity []uint32
		for m := 0; m < rows; m++ {
			all = append(all, uint32(m))
			if bits.OnesCount(uint(m))%2 == 1 {
				parity = append(parity, uint32(m))
			}
		}
		cases := [][]uint32{nil, all, parity}
		count := 20
		if k >= 9 {
			count = 8 // the map-based reference dominates at these widths
		}
		for i := 0; i < count; i++ {
			density := 0.05 + 0.9*float64(i%10)/9
			var ms []uint32
			for m := 0; m < rows; m++ {
				if rng.Float64() < density {
					ms = append(ms, uint32(m))
				}
			}
			cases = append(cases, ms)
		}
		for ci, ms := range cases {
			primes := s.primeImplicants(tableOf(ms, k), k)
			want := sortedImplicants(refSelectCover(slices.Clone(primes), ms))
			before := s.effort.Selected
			got := sortedImplicants(s.selectCover(primes, k))
			if !slices.Equal(got, want) {
				t.Fatalf("k=%d case %d (%d minterms): chose %v, reference %v", k, ci, len(ms), got, want)
			}
			if n := s.effort.Selected - before; n != int64(len(want)) {
				t.Fatalf("k=%d case %d: %d primes counted selected, chose %d", k, ci, n, len(want))
			}
		}
	}
}

// TestOptimizeEffortDeterministic checks the SIS effort counters are a
// pure function of the input netlist.
func TestOptimizeEffortDeterministic(t *testing.T) {
	var ref Effort
	for run := 0; run < 3; run++ {
		nl := buildRandomNetlist(t, 7, 6, 25)
		e, err := Optimize(nl)
		if err != nil {
			t.Fatal(err)
		}
		if e.Minimizations == 0 || e.Combines == 0 || e.Selected == 0 {
			t.Fatalf("no effort recorded: %+v", e)
		}
		if run == 0 {
			ref = e
		} else if e != ref {
			t.Fatalf("run %d effort %+v, first run %+v", run, e, ref)
		}
	}
}

// BenchmarkOptimize runs the SIS script on the largest committed example,
// whose eliminate pass minimizes hundreds of collapses up to qmLimit wide.
func BenchmarkOptimize(b *testing.B) {
	src, err := os.ReadFile("../../examples/netlists/rand128.blif")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		nl, err := netlist.ParseBLIF(string(src))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := Optimize(nl); err != nil {
			b.Fatal(err)
		}
	}
}
