package logic

import (
	"fmt"
	"slices"
	"strings"

	"fpgaflow/internal/netlist"
)

// The optimization script's fixed effort: nodes whose merge would exceed
// eliminateMaxSupport combined inputs are kept, only nodes with fanout up
// to eliminateMaxFanout are considered for elimination (SIS's value
// threshold), and the whole script runs scriptIterations times.
const (
	eliminateMaxSupport = 10
	eliminateMaxFanout  = 3
	scriptIterations    = 2
)

// Optimize runs the full technology-independent script, a compact analogue
// of SIS's script.rugged: constant propagation and buffer removal, node
// elimination, per-node two-level minimization, structural hashing, sweep.
// It returns the exact-minimization effort it spent.
func Optimize(nl *netlist.Netlist) (Effort, error) {
	var s qmScratch
	for it := 0; it < scriptIterations; it++ {
		if err := PropagateConstants(nl); err != nil {
			return s.effort, err
		}
		RemoveBuffers(nl)
		if err := s.eliminate(nl, eliminateMaxSupport, eliminateMaxFanout); err != nil {
			return s.effort, err
		}
		if err := s.simplifyNodes(nl); err != nil {
			return s.effort, err
		}
		MergeDuplicates(nl)
		nl.Sweep()
	}
	return s.effort, nl.Check()
}

// simplifyNodes minimizes every logic node's cover in place.
func (s *qmScratch) simplifyNodes(nl *netlist.Netlist) error {
	for _, n := range nl.Nodes() {
		if n.Kind != netlist.KindLogic {
			continue
		}
		if err := checkWidth(n.Cover, len(n.Fanin)); err != nil {
			return fmt.Errorf("node %s: %w", n.Name, err)
		}
		min := s.minimizeCover(n.Cover, len(n.Fanin))
		// Drop fanins that became irrelevant (all-DC columns).
		n.Cover = min
		pruneUnusedFanins(n)
	}
	return nil
}

// pruneUnusedFanins removes fanin positions that are don't-care in every
// cube. The node must own its cubes; its fanin slice is copied.
func pruneUnusedFanins(n *netlist.Node) {
	for i := len(n.Fanin) - 1; i >= 0; i-- {
		used := false
		for _, cube := range n.Cover.Cubes {
			used = used || cube[i] != netlist.LitDC
		}
		if !used {
			n.Fanin = slices.Delete(slices.Clone(n.Fanin), i, i+1)
			for ci, cube := range n.Cover.Cubes {
				n.Cover.Cubes[ci] = slices.Delete(cube, i, i+1)
			}
		}
	}
}

// PropagateConstants replaces uses of constant nodes by specializing the
// consuming covers, iterating to a fixed point.
func PropagateConstants(nl *netlist.Netlist) error {
	for {
		changed := false
		for _, n := range nl.Nodes() {
			if n.Kind != netlist.KindLogic {
				continue
			}
			for i := 0; i < len(n.Fanin); i++ {
				cn, ok := constValue(n.Fanin[i])
				if !ok {
					continue
				}
				specialize(n, i, cn)
				changed = true
				i-- // positions shifted
			}
		}
		if !changed {
			return nil
		}
	}
}

func constValue(n *netlist.Node) (bool, bool) {
	ok, v := n.IsConst()
	return v, ok
}

// specialize fixes fanin position i of n to value v and removes the fanin.
func specialize(n *netlist.Node, i int, v bool) {
	lit := netlist.LitZero
	if v {
		lit = netlist.LitOne
	}
	var cubes []netlist.Cube
	for _, cube := range n.Cover.Cubes {
		if cube[i] != netlist.LitDC && cube[i] != lit {
			continue // cube cannot fire
		}
		nc := make(netlist.Cube, 0, len(cube)-1)
		nc = append(nc, cube[:i]...)
		nc = append(nc, cube[i+1:]...)
		cubes = append(cubes, nc)
	}
	n.Cover.Cubes = cubes
	n.Fanin = append(n.Fanin[:i], n.Fanin[i+1:]...)
}

// RemoveBuffers redirects uses of buffer nodes to their sources. Inverter
// chains of even length collapse transitively through repeated passes.
// Buffers feeding primary outputs are kept when removing them would merge
// two output names onto one node.
func RemoveBuffers(nl *netlist.Netlist) int {
	removed := 0
	for _, n := range nl.Nodes() {
		if !n.IsBuffer() {
			continue
		}
		src := n.Fanin[0]
		nl.ReplaceUses(n, src)
		if nl.IsOutput(n.Name) {
			continue // keep: the node still names an output signal
		}
		removed++
	}
	nl.Sweep()
	return removed
}

// eliminate collapses logic nodes with fanout <= maxFanout into their
// consumers when the merged support stays within maxSupport and the merged
// cover does not blow up (the SIS "eliminate" value check: two-level
// collapsing of XOR/parity chains is exponential and must be refused).
// Primary outputs and latch D-drivers keep their nodes.
func (s *qmScratch) eliminate(nl *netlist.Netlist, maxSupport, maxFanout int) error {
	if maxSupport > qmLimit {
		return fmt.Errorf("logic: eliminate support %d exceeds the %d-input exact limit", maxSupport, qmLimit)
	}
	nl.BuildFanout()
	for _, g := range nl.Nodes() {
		if g.Kind != netlist.KindLogic || len(g.Fanin) == 0 {
			continue
		}
		if nl.IsOutput(g.Name) {
			continue
		}
		fanout := g.Fanout()
		if len(fanout) == 0 || len(fanout) > maxFanout {
			continue
		}
		collapsible := true
		merged := make([]collapsed, 0, len(fanout))
		for _, f := range fanout {
			if f.Kind != netlist.KindLogic {
				collapsible = false
				break
			}
			m, ok := s.mergedFunction(f, g, maxSupport)
			// Value check: refuse collapses that grow the literal count
			// beyond the two nodes' combined cost.
			if !ok || Literals(m.cover) > Literals(f.Cover)+Literals(g.Cover)+2 {
				collapsible = false
				break
			}
			merged = append(merged, m)
		}
		if !collapsible {
			continue
		}
		for i, f := range fanout {
			f.Fanin = merged[i].fanin
			f.Cover = merged[i].cover
			pruneUnusedFanins(f)
		}
		nl.BuildFanout()
	}
	nl.Sweep()
	return nil
}

// collapsed is a candidate merged node body.
type collapsed struct {
	fanin []*netlist.Node
	cover netlist.Cover
}

// mergedFunction computes the result of substituting g into f without
// mutating either node, or reports false when the merged support exceeds
// maxSupport. g is evaluated over the merged inputs' columns, and f over
// those with g's column in its place.
func (s *qmScratch) mergedFunction(f, g *netlist.Node, maxSupport int) (collapsed, bool) {
	var fanin []*netlist.Node
	for _, x := range f.Fanin {
		if x != g && !slices.Contains(fanin, x) {
			fanin = append(fanin, x)
		}
	}
	for _, x := range g.Fanin {
		if !slices.Contains(fanin, x) {
			fanin = append(fanin, x)
		}
	}
	k := len(fanin)
	if k > maxSupport {
		return collapsed{}, false
	}
	nw := netlist.TableWords(k)
	s.in = s.in[:0]
	for _, x := range g.Fanin {
		s.in = append(s.in, s.column(slices.Index(fanin, x), nw))
	}
	s.gv = grow(s.gv, nw)
	netlist.EvalCoverWords(g.Cover, s.in, s.gv)
	s.in = s.in[:0]
	for _, x := range f.Fanin {
		if x == g {
			s.in = append(s.in, s.gv)
		} else {
			s.in = append(s.in, s.column(slices.Index(fanin, x), nw))
		}
	}
	s.tt = grow(s.tt, nw)
	netlist.EvalCoverWords(f.Cover, s.in, s.tt)
	return collapsed{fanin: fanin, cover: s.minimize(s.tt, k)}, true
}

// MergeDuplicates performs structural hashing: logic nodes with identical
// fanin lists and canonical covers are merged, keeping the first. Returns
// the number of merged nodes.
func MergeDuplicates(nl *netlist.Netlist) int {
	merged := 0
	for {
		seen := make(map[string]*netlist.Node, nl.NumNodes())
		victim := 0
		for _, n := range nl.Nodes() {
			if n.Kind != netlist.KindLogic {
				continue
			}
			key := hashKey(n)
			if first, dup := seen[key]; dup {
				nl.ReplaceUses(n, first)
				if !nl.IsOutput(n.Name) {
					victim++
				}
				continue
			}
			seen[key] = n
		}
		if victim == 0 {
			break
		}
		merged += nl.Sweep()
	}
	return merged
}

func hashKey(n *netlist.Node) string {
	var sb strings.Builder
	for _, f := range n.Fanin {
		sb.WriteString(f.Name)
		sb.WriteByte(',')
	}
	sb.WriteByte(';')
	sb.WriteString(CanonicalCover(n.Cover))
	return sb.String()
}
