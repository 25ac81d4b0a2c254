package route

import (
	"math/rand"
	"testing"
)

// refPQ is the swapping binary heap the hole-sift pq replaced, kept
// verbatim as the reference: push swaps the new item up while its parent
// is strictly larger, pop moves the last item to the root and swaps it
// down with the smaller child (the left one on a tie).
type refPQ []pqItem

func (q *refPQ) push(it pqItem) {
	*q = append(*q, it)
	s := *q
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent].f <= s[i].f {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

func (q *refPQ) pop() pqItem {
	s := *q
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*q = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && s[l].f < s[small].f {
			small = l
		}
		if r < n && s[r].f < s[small].f {
			small = r
		}
		if small == i {
			break
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
	return top
}

// TestHeapMatchesSwappingReference drives the hole-sift heap and the
// swapping reference with the same random push/pop sequences. Keys come
// from a handful of values, so most comparisons are exact ties; the two
// heaps must pop the same (f, g, node) items in the same order, since the
// router's tie order — and so its routing — follows the heap's.
func TestHeapMatchesSwappingReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		var got pq
		var want refPQ
		keys := 1 + rng.Intn(6)
		ops := 1 + rng.Intn(2000)
		node := int32(0)
		for op := 0; op < ops; op++ {
			if len(want) == 0 || rng.Intn(5) < 3 {
				it := pqItem{f: float64(rng.Intn(keys)) * 0.5, g: rng.Float64(), node: node}
				node++
				got.push(it)
				want.push(it)
				continue
			}
			if g, w := got.pop(), want.pop(); g != w {
				t.Fatalf("trial %d op %d: popped %+v, reference %+v", trial, op, g, w)
			}
		}
		for len(want) > 0 {
			if g, w := got.pop(), want.pop(); g != w {
				t.Fatalf("trial %d drain: popped %+v, reference %+v", trial, g, w)
			}
		}
		if len(got) != 0 {
			t.Fatalf("trial %d: %d items left after the reference drained", trial, len(got))
		}
	}
}
