// Package techmap maps a fanin-bounded logic network onto K-input LUTs.
// The primary mapper is FlowMap (Cong & Ding, 1994): depth-optimal K-LUT
// covering via max-flow K-feasible cut computation. A greedy
// maximum-fanout-free-cone mapper is provided as the area-oriented baseline.
// This is the "SIS LUT mapping" stage of the paper's flow.
package techmap

import (
	"fmt"
	"slices"

	"fpgaflow/internal/logic"
	"fpgaflow/internal/netlist"
)

// Result describes a mapping.
type Result struct {
	Netlist *netlist.Netlist
	// Depth is the maximum LUT depth of the mapped network.
	Depth int
	// LUTs is the number of LUTs created.
	LUTs int
	// CutTests counts FlowMap's K-feasible-cut computations, one per logic
	// node with fanin (zero for MapGreedy).
	CutTests int64
	// Augmentations counts the augmenting paths those computations found.
	// Each test adds min(max-flow, K+1), which no search order changes.
	Augmentations int64
}

// FlowMap maps nl onto K-input LUTs with optimal depth. The input network's
// logic nodes must have fanin <= K (run logic.Decompose first for K >= 2).
func FlowMap(nl *netlist.Netlist, k int) (*Result, error) {
	if k < 2 {
		return nil, fmt.Errorf("techmap: K must be >= 2, got %d", k)
	}
	if mf := logic.MaxFanin(nl); mf > k {
		return nil, fmt.Errorf("techmap: network has %d-input node, exceeds K=%d; decompose first", mf, k)
	}
	m, err := newFlowMapper(nl, k)
	if err != nil {
		return nil, err
	}
	for _, id := range m.topo {
		m.labelNode(id)
	}
	res, err := buildMapped(nl, m.cutOf)
	if err != nil {
		return nil, err
	}
	res.CutTests, res.Augmentations = m.cutTests, m.augmentations
	return res, nil
}

// Flow-network vertices: the source, the sink, then an in/out pair per
// cut candidate (the out vertex is in+1).
const (
	src  = 0
	sink = 1
)

// arc is one residual-graph edge; rev indexes the reverse arc in adj[to].
type arc struct {
	to, cap, rev int32
}

// flowMapper is the state of one FlowMap call. Per-node slices are indexed
// by node ID, and every per-node and per-vertex buffer is reused by each
// node's cut test, so a test allocates nothing once the buffers have grown.
type flowMapper struct {
	k     int32
	nodes []*netlist.Node // nl.Nodes(), by ID
	topo  []int32         // node IDs in topological order
	fanin [][]int32
	logic []bool
	label []int32
	cut   [][]*netlist.Node // LUT inputs chosen for each logic node
	arena []*netlist.Node   // backing store of the feasible cuts

	// stamp identifies the current cut test: a node is in its cone when
	// inCone equals stamp, and owns vertices vin when hasVert equals stamp.
	stamp   uint32
	inCone  []uint32
	hasVert []uint32
	vin     []int32
	cone    []int32
	cands   []int32 // nodes owning vertices, in creation order

	adj       [][]arc
	nverts    int32
	parent    []int32
	parentArc []int32
	queue     []int32

	cutTests, augmentations int64
}

// newFlowMapper numbers nl's fanins by ID. TopoSort rejects a foreign
// fanin, so every fanin ID addresses a node of nl.
func newFlowMapper(nl *netlist.Netlist, k int) (*flowMapper, error) {
	topo, err := nl.TopoSort()
	if err != nil {
		return nil, err
	}
	n := nl.NumNodes()
	m := &flowMapper{
		k:       int32(k),
		nodes:   nl.Nodes(),
		topo:    make([]int32, len(topo)),
		fanin:   make([][]int32, n),
		logic:   make([]bool, n),
		label:   make([]int32, n),
		cut:     make([][]*netlist.Node, n),
		inCone:  make([]uint32, n),
		hasVert: make([]uint32, n),
		vin:     make([]int32, n),
	}
	edges := 0
	for i, nd := range topo {
		m.topo[i] = int32(nd.ID())
		if nd.Kind == netlist.KindLogic {
			m.logic[nd.ID()] = true
			edges += len(nd.Fanin)
		}
	}
	flat := make([]int32, 0, edges)
	for i, nd := range m.nodes {
		if !m.logic[i] {
			continue
		}
		start := len(flat)
		for _, f := range nd.Fanin {
			flat = append(flat, int32(f.ID()))
		}
		m.fanin[i] = flat[start:len(flat):len(flat)]
	}
	return m, nil
}

// cutOf returns the LUT inputs chosen for a logic node.
func (m *flowMapper) cutOf(n *netlist.Node) ([]*netlist.Node, bool) {
	if !m.logic[n.ID()] {
		return nil, false
	}
	return m.cut[n.ID()], true
}

// labelNode computes node i's FlowMap label and cut; every node before i
// in topological order must already be labelled.
func (m *flowMapper) labelNode(i int32) {
	if !m.logic[i] || len(m.fanin[i]) == 0 {
		// Inputs, latches and constants (zero-input LUTs) sit at depth 0.
		return
	}
	p := int32(0)
	for _, f := range m.fanin[i] {
		p = max(p, m.label[f])
	}
	m.label[i] = p // tentative: t always joins the sink cluster
	if cut, ok := m.kFeasibleCut(i, p); ok {
		m.cut[i] = cut
		return
	}
	m.label[i] = p + 1
	m.cut[i] = m.nodes[i].Fanin
}

// kFeasibleCut tests whether cone(t) has a K-feasible cut of height p-1 and
// returns the cut node set (the LUT inputs, sorted by name) if so.
// Following FlowMap, nodes in the cone with label == p are collapsed into
// the sink; unit node capacities make max-flow <= K equivalent to a
// K-feasible node cut.
func (m *flowMapper) kFeasibleCut(t, p int32) ([]*netlist.Node, bool) {
	m.cutTests++
	m.stamp++
	m.collectCone(t)
	// A cone input already at height p (e.g. a primary input when p == 0)
	// would have to sit on the sink side of any height-(p-1) cut, which is
	// impossible: no such cut exists.
	for _, u := range m.cone {
		for _, f := range m.fanin[u] {
			if m.label[f] == p && m.inCone[f] != m.stamp {
				return nil, false
			}
		}
	}
	m.buildNetwork(p)
	flow := int32(0)
	for flow <= m.k && m.augment() {
		flow++
	}
	m.augmentations += int64(flow)
	if flow > m.k {
		return nil, false
	}
	// Min cut: the candidates whose in-vertex the failed search reached
	// but whose out-vertex it did not. The search ran to exhaustion, so
	// parent marks exactly the vertices reachable from the source in the
	// residual graph — the same set for every maximum flow.
	start := len(m.arena)
	for _, c := range m.cands {
		if v := m.vin[c]; m.parent[v] >= 0 && m.parent[v+1] < 0 {
			m.arena = append(m.arena, m.nodes[c])
		}
	}
	cut := m.arena[start:len(m.arena):len(m.arena)]
	if len(cut) > int(m.k) {
		// Defensive: should not happen when flow <= k.
		m.arena = m.arena[:start]
		return nil, false
	}
	slices.SortFunc(cut, byName)
	return cut, true
}

// collectCone gathers the combinational transitive fanin of t, t included,
// into m.cone and stamps its members. Inputs and latches are not cone
// members (they are cut candidates).
func (m *flowMapper) collectCone(t int32) {
	m.cone = append(m.cone[:0], t)
	m.inCone[t] = m.stamp
	for i := 0; i < len(m.cone); i++ {
		for _, f := range m.fanin[m.cone[i]] {
			if m.logic[f] && m.inCone[f] != m.stamp {
				m.inCone[f] = m.stamp
				m.cone = append(m.cone, f)
			}
		}
	}
}

// buildNetwork lays out the flow network of the current cone in the
// reused adjacency lists: the source feeds each cone input, every cut
// candidate (label < p) splits into in/out vertices joined by a unit arc,
// and nodes at label p merge into the sink.
func (m *flowMapper) buildNetwork(p int32) {
	m.nverts = 0
	m.newPair() // src, sink
	m.cands = m.cands[:0]
	for _, u := range m.cone {
		to := int32(sink)
		if m.label[u] != p {
			to = m.vertex(u)
		}
		for _, f := range m.fanin[u] {
			// Labels are monotone along edges, so a fanin at height p of a
			// node below p cannot occur; guard anyway.
			if m.label[f] == p {
				continue
			}
			m.addArc(m.vertex(f)+1, to, m.k+1)
		}
	}
}

// vertex returns node n's in-vertex, creating its vertex pair on first use.
func (m *flowMapper) vertex(n int32) int32 {
	if m.hasVert[n] == m.stamp {
		return m.vin[n]
	}
	v := m.newPair()
	m.hasVert[n], m.vin[n] = m.stamp, v
	m.cands = append(m.cands, n)
	m.addArc(v, v+1, 1)
	if m.inCone[n] != m.stamp { // cone input: unlimited supply from source
		m.addArc(src, v, m.k+1)
	}
	return v
}

// newPair adds two vertices with empty arc lists, reusing the lists'
// backing arrays, and returns the first.
func (m *flowMapper) newPair() int32 {
	v := m.nverts
	m.nverts += 2
	for len(m.adj) < int(m.nverts) {
		m.adj = append(m.adj, nil)
	}
	m.adj[v], m.adj[v+1] = m.adj[v][:0], m.adj[v+1][:0]
	return v
}

func (m *flowMapper) addArc(u, v, c int32) {
	m.adj[u] = append(m.adj[u], arc{to: v, cap: c, rev: int32(len(m.adj[v]))})
	m.adj[v] = append(m.adj[v], arc{to: u, cap: 0, rev: int32(len(m.adj[u]) - 1)})
}

// augment finds one augmenting path by BFS and pushes one unit of flow
// along it: every path leaves the source through a cone input's unit
// node-splitting arc.
// It reports false, leaving parent marking the source's residual
// reachability, when no path exists.
func (m *flowMapper) augment() bool {
	n := int(m.nverts)
	m.parent = resize(m.parent, n)
	m.parentArc = resize(m.parentArc, n)
	for i := range m.parent {
		m.parent[i] = -1
	}
	m.parent[src] = src
	q := append(m.queue[:0], src)
	//fpga:hotloop
	for h := 0; h < len(q) && m.parent[sink] < 0; h++ {
		u := q[h]
		for ai, a := range m.adj[u] {
			if a.cap > 0 && m.parent[a.to] < 0 {
				m.parent[a.to] = u
				m.parentArc[a.to] = int32(ai)
				q = append(q, a.to)
			}
		}
	}
	m.queue = q
	if m.parent[sink] < 0 {
		return false
	}
	for v := int32(sink); v != src; {
		u := m.parent[v]
		a := &m.adj[u][m.parentArc[v]]
		a.cap--
		m.adj[v][a.rev].cap++
		v = u
	}
	return true
}

// resize returns s with length n, reusing its backing array when it fits.
func resize(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n, 2*n)
	}
	return s[:n]
}
