package route

import (
	"container/heap"
	"testing"

	"fpgaflow/internal/arch"
	"fpgaflow/internal/rrgraph"
)

type dbgItem struct {
	node int
	cost float64
}
type dbgPQ []dbgItem

func (q dbgPQ) Len() int            { return len(q) }
func (q dbgPQ) Less(i, j int) bool  { return q[i].cost < q[j].cost }
func (q dbgPQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *dbgPQ) Push(x interface{}) { *q = append(*q, x.(dbgItem)) }
func (q *dbgPQ) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// TestLookaheadAdmissible proves the A* bound admissible: for every RR
// node and every sink of a paper-architecture fabric, h(node) must not
// exceed the true uncongested base cost of the cheapest node->sink path
// (computed by reverse Dijkstra over base costs). Admissibility is what
// makes the lookahead QoR-neutral — the first pop of the target then
// always carries an optimal cost, so A* and plain Dijkstra return routes
// of identical cost.
func TestLookaheadAdmissible(t *testing.T) {
	a := arch.Paper()
	a.Cols, a.Rows = 6, 5
	a.Routing.ChannelWidth = 4
	g, err := rrgraph.Build(a)
	if err != nil {
		t.Fatal(err)
	}
	base := func(id int) float64 {
		if g.Type[id] == rrgraph.Sink {
			return 0.1
		}
		return 1.0
	}
	// reverse adjacency
	radj := make([][]int32, g.NumNodes())
	for from := range g.Type {
		for _, e := range g.Edges(from) {
			radj[e] = append(radj[e], int32(from))
		}
	}
	hr := newHeur(g, false, 0, true)
	bad := 0
	for tid, typ := range g.Type {
		if typ != rrgraph.Sink {
			continue
		}
		tn := g.Node(tid)
		// reverse dijkstra: dist[n] = min cost of nodes AFTER n on a path
		// n -> ... -> sink, i.e. sum of base costs of successors incl sink.
		dist := make([]float64, g.NumNodes())
		seen := make([]bool, g.NumNodes())
		for i := range dist {
			dist[i] = -1
		}
		var q dbgPQ
		dist[tn.ID] = 0
		heap.Push(&q, dbgItem{tn.ID, 0})
		for q.Len() > 0 {
			it := heap.Pop(&q).(dbgItem)
			if seen[it.node] {
				continue
			}
			seen[it.node] = true
			for _, pr := range radj[it.node] {
				c := it.cost + base(it.node)
				if dist[pr] < 0 || c < dist[pr] {
					dist[pr] = c
					heap.Push(&q, dbgItem{int(pr), c})
				}
			}
		}
		for id := range g.Type {
			n := g.Node(id)
			if dist[n.ID] < 0 || n.ID == tn.ID {
				continue
			}
			if h := hr.bound(n.ID, tn.ID, tn.X, tn.Y); h > dist[n.ID]+1e-9 {
				bad++
				if bad <= 12 {
					t.Errorf("h(%s@(%d,%d)#%d -> sink@(%d,%d)) = %.3f > true %.3f",
						n.Type, n.X, n.Y, n.ID, tn.X, tn.Y, h, dist[n.ID])
				}
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d inadmissible bounds", bad)
	}
}
