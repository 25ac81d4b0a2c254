package check

import (
	"fmt"
	"sort"
	"strings"

	"fpgaflow/internal/netlist"
)

// Netlist-stage rules: lint on the logic network entering and leaving the
// SIS / LUT-mapping stages, plus a text-level scan of raw BLIF for the one
// violation the IR cannot represent (a multi-driven net: the parser rejects
// the second driver before a network exists).

func hasNetlist(a *Artifacts) bool { return a.Netlist != nil }

func init() {
	register(Rule{
		ID:       "net/multi-driven",
		Stage:    StageNetlist,
		Severity: Error,
		Doc:      "a signal is driven by more than one .names/.latch/.inputs declaration in the BLIF text",
		Applies:  func(a *Artifacts) bool { return a.BLIF != "" },
		Run:      runMultiDriven,
	})
	register(Rule{
		ID:       "net/undriven",
		Stage:    StageNetlist,
		Severity: Error,
		Doc:      "a primary output or a fanin reference has no driver in the network",
		Applies:  hasNetlist,
		Run:      runUndriven,
	})
	register(Rule{
		ID:       "net/comb-loop",
		Stage:    StageNetlist,
		Severity: Error,
		Doc:      "a combinational cycle (strongly connected component not broken by a latch)",
		Applies:  hasNetlist,
		Run:      runCombLoop,
	})
	register(Rule{
		ID:       "net/cube-width",
		Stage:    StageNetlist,
		Severity: Error,
		Doc:      "a logic node's cube width disagrees with its fanin count",
		Applies:  hasNetlist,
		Run:      runCubeWidth,
	})
	register(Rule{
		ID:       "net/lut-arity",
		Stage:    StageNetlist,
		Severity: Error,
		Doc:      "a logic node has more fanins than the architecture's LUT size K",
		Applies:  func(a *Artifacts) bool { return a.Netlist != nil && a.K > 0 },
		Run:      runLUTArity,
	})
	register(Rule{
		ID:       "net/dangling",
		Stage:    StageNetlist,
		Severity: Warn,
		Doc:      "a logic node or latch drives nothing: it has no fanout and is not a primary output",
		Applies:  hasNetlist,
		Run:      runDangling,
	})
	register(Rule{
		ID:       "net/unused-input",
		Stage:    StageNetlist,
		Severity: Warn,
		Doc:      "a primary input feeds no node and no output",
		Applies:  hasNetlist,
		Run:      runUnusedInput,
	})
	register(Rule{
		ID:       "net/floating-lut-input",
		Stage:    StageNetlist,
		Severity: Warn,
		Doc:      "a LUT input is don't-care in every cube (a physically connected but logically unused pin)",
		Applies:  func(a *Artifacts) bool { return a.Netlist != nil && a.K > 0 },
		Run:      runFloatingLUTInput,
	})
}

// runMultiDriven scans BLIF text for two declarations driving one signal.
// It mirrors the parser's line handling (comments, backslash continuation)
// without building a network, so it can diagnose input the parser rejects.
func runMultiDriven(a *Artifacts, rep *reporter) {
	driver := map[string]string{} // signal -> declaration kind
	claim := func(signal, kind string) {
		if prev, dup := driver[signal]; dup {
			rep.add(signal, "driven by %s and %s", prev, kind)
			return
		}
		driver[signal] = kind
	}
	var pending strings.Builder
	for _, line := range strings.Split(a.BLIF, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		if strings.HasSuffix(line, "\\") {
			pending.WriteString(strings.TrimSuffix(line, "\\"))
			pending.WriteByte(' ')
			continue
		}
		pending.WriteString(line)
		full := strings.TrimSpace(pending.String())
		pending.Reset()
		if full == "" {
			continue
		}
		fields := strings.Fields(full)
		switch fields[0] {
		case ".inputs":
			for _, in := range fields[1:] {
				claim(in, ".inputs "+in)
			}
		case ".names":
			if len(fields) >= 2 {
				claim(fields[len(fields)-1], ".names")
			}
		case ".latch":
			if len(fields) >= 3 {
				claim(fields[2], ".latch")
			}
		}
	}
}

func runUndriven(a *Artifacts, rep *reporter) {
	nl := a.Netlist
	for _, o := range nl.Outputs {
		if nl.Node(o) == nil {
			rep.add(o, "primary output has no driver")
		}
	}
	for _, n := range nl.Nodes() {
		for _, f := range n.Fanin {
			if !nl.Contains(f) {
				rep.add(n.Name, "fanin %q is not driven in this network", f.Name)
			}
		}
		if n.Kind == netlist.KindLatch && len(n.Fanin) != 1 {
			rep.add(n.Name, "latch has %d fanins, want exactly 1", len(n.Fanin))
		}
	}
}

// runCombLoop finds combinational cycles with Tarjan's SCC algorithm over
// the logic nodes (latches break cycles by construction). Unlike a plain
// topological sort it reports every loop, each once, with its full member
// list. Foreign fanins are left to the undriven rule.
func runCombLoop(a *Artifacts, rep *reporter) {
	nl := a.Netlist
	// index is a node's visit number plus one (0: unvisited), by ID.
	index := make([]int, nl.NumNodes())
	low := make([]int, nl.NumNodes())
	onStack := make([]bool, nl.NumNodes())
	var stack []*netlist.Node
	next := 1

	// Iterative Tarjan: frame tracks the fanin cursor per node.
	type frame struct {
		n *netlist.Node
		i int
	}
	var visit func(root *netlist.Node)
	visit = func(root *netlist.Node) {
		frames := []frame{{n: root}}
		index[root.ID()], low[root.ID()] = next, next
		next++
		stack = append(stack, root)
		onStack[root.ID()] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.n.Kind == netlist.KindLogic && f.i < len(f.n.Fanin) {
				w := f.n.Fanin[f.i]
				f.i++
				if w.Kind != netlist.KindLogic || !nl.Contains(w) {
					continue
				}
				if index[w.ID()] == 0 {
					index[w.ID()], low[w.ID()] = next, next
					next++
					stack = append(stack, w)
					onStack[w.ID()] = true
					frames = append(frames, frame{n: w})
				} else if onStack[w.ID()] && index[w.ID()] < low[f.n.ID()] {
					low[f.n.ID()] = index[w.ID()]
				}
				continue
			}
			// All fanins done: pop an SCC if f.n is a root.
			if low[f.n.ID()] == index[f.n.ID()] {
				var scc []string
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w.ID()] = false
					scc = append(scc, w.Name)
					if w == f.n {
						break
					}
				}
				if len(scc) > 1 || selfLoop(f.n) {
					sort.Strings(scc)
					rep.add(scc[0], "combinational loop through %s", strings.Join(scc, ", "))
				}
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].n
				low[p.ID()] = min(low[p.ID()], low[f.n.ID()])
			}
		}
	}
	for _, n := range nl.Nodes() {
		if n.Kind != netlist.KindLogic {
			continue
		}
		if index[n.ID()] == 0 {
			visit(n)
		}
	}
}

func selfLoop(n *netlist.Node) bool {
	for _, f := range n.Fanin {
		if f == n {
			return true
		}
	}
	return false
}

func runCubeWidth(a *Artifacts, rep *reporter) {
	for _, n := range a.Netlist.Nodes() {
		if n.Kind != netlist.KindLogic {
			continue
		}
		for _, cube := range n.Cover.Cubes {
			if len(cube) != len(n.Fanin) {
				rep.add(n.Name, "cube %q has width %d, node has %d fanins",
					cube, len(cube), len(n.Fanin))
				break
			}
		}
	}
}

func runLUTArity(a *Artifacts, rep *reporter) {
	for _, n := range a.Netlist.Nodes() {
		if n.Kind == netlist.KindLogic && len(n.Fanin) > a.K {
			rep.add(n.Name, "%d fanins exceed K=%d LUT inputs", len(n.Fanin), a.K)
		}
	}
}

func runDangling(a *Artifacts, rep *reporter) {
	nl := a.Netlist
	nl.BuildFanout()
	for _, n := range nl.Nodes() {
		if n.Kind == netlist.KindInput {
			continue
		}
		if len(n.Fanout()) == 0 && !nl.IsOutput(n.Name) {
			rep.add(n.Name, "%s drives nothing (dead logic)", n.Kind)
		}
	}
}

func runUnusedInput(a *Artifacts, rep *reporter) {
	nl := a.Netlist
	nl.BuildFanout()
	for _, in := range nl.Inputs {
		if len(in.Fanout()) == 0 && !nl.IsOutput(in.Name) {
			rep.add(in.Name, "primary input feeds nothing")
		}
	}
}

func runFloatingLUTInput(a *Artifacts, rep *reporter) {
	for _, n := range a.Netlist.Nodes() {
		if n.Kind != netlist.KindLogic || len(n.Cover.Cubes) == 0 {
			continue
		}
		for i := range n.Fanin {
			used := false
			for _, cube := range n.Cover.Cubes {
				if i < len(cube) && cube[i] != netlist.LitDC {
					used = true
					break
				}
			}
			if !used {
				rep.add(n.Name, "LUT input %d (%s) is don't-care in every cube", i, faninName(n, i))
			}
		}
	}
}

func faninName(n *netlist.Node, i int) string {
	if i < len(n.Fanin) {
		return n.Fanin[i].Name
	}
	return fmt.Sprintf("#%d", i)
}
