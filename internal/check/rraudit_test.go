package check

import (
	"slices"
	"testing"

	"fpgaflow/internal/arch"
	"fpgaflow/internal/rrgraph"
)

// rrGraphCorruption breaks a clean routing-resource graph so that rule
// must fire.
type rrGraphCorruption struct {
	name    string
	corrupt func(g *rrgraph.Graph)
	rule    string
}

// setEdges replaces node from's out-edges with edges, rebuilding the
// graph's CSR arrays around them.
func setEdges(g *rrgraph.Graph, from int, edges []int32) {
	lo, hi := g.EdgeStart[from], g.EdgeStart[from+1]
	to := append(append(slices.Clone(g.EdgeTo[:lo]), edges...), g.EdgeTo[hi:]...)
	for i := from + 1; i < len(g.EdgeStart); i++ {
		g.EdgeStart[i] += int32(len(edges)) - (hi - lo)
	}
	g.EdgeTo = to
}

// addEdge appends the edge from -> to to from's out-edges.
func addEdge(g *rrgraph.Graph, from, to int) {
	setEdges(g, from, append(slices.Clone(g.Edges(from)), int32(to)))
}

// firstOf returns the lowest node ID of type t.
func firstOf(g *rrgraph.Graph, t rrgraph.NodeType) int {
	id := slices.Index(g.Type, t)
	if id < 0 {
		panic("no " + t.String() + " node")
	}
	return id
}

// rrGraphCorruptions are the RR-graph audit fixtures; the rule-coverage
// walk (TestEveryRuleHasFiringFixture) reuses them.
var rrGraphCorruptions = []rrGraphCorruption{
	{
		name:    "dangling-edge",
		corrupt: func(g *rrgraph.Graph) { addEdge(g, 0, g.NumNodes()+7) },
		rule:    "route/rr-dangling",
	},
	{
		name:    "negative-edge",
		corrupt: func(g *rrgraph.Graph) { addEdge(g, 0, -1) },
		rule:    "route/rr-dangling",
	},
	{
		name:    "malformed-edge-offsets",
		corrupt: func(g *rrgraph.Graph) { g.EdgeStart[1] = g.EdgeStart[2] + 1 },
		rule:    "route/rr-dangling",
	},
	{
		name:    "self-loop",
		corrupt: func(g *rrgraph.Graph) { addEdge(g, 3, 3) },
		rule:    "route/rr-self-loop",
	},
	{
		name:    "zero-capacity",
		corrupt: func(g *rrgraph.Graph) { g.Capacity[5] = 0 },
		rule:    "route/rr-capacity",
	},
	{
		name:    "wire-without-span",
		corrupt: func(g *rrgraph.Graph) { g.Span[firstOf(g, rrgraph.ChanX)] = 0 },
		rule:    "route/rr-capacity",
	},
	{
		name:    "track-off-channel",
		corrupt: func(g *rrgraph.Graph) { g.Track[firstOf(g, rrgraph.ChanY)] = int32(g.W + 3) },
		rule:    "route/rr-capacity",
	},
	{
		name: "isolated-opin",
		corrupt: func(g *rrgraph.Graph) {
			op := firstOf(g, rrgraph.OPin)
			var kept []int32
			for _, e := range g.Edges(op) {
				if !g.Type[e].IsWire() {
					kept = append(kept, e)
				}
			}
			setEdges(g, op, kept)
		},
		rule: "route/rr-isolated-pin",
	},
}

// rrAuditGraph builds the clean 3x3 paper-fabric graph the RR-graph
// fixtures corrupt.
func rrAuditGraph(t *testing.T) *rrgraph.Graph {
	t.Helper()
	a := arch.Paper()
	a.Rows, a.Cols = 3, 3
	g, err := rrgraph.Build(a)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestRRGraphAudit feeds deliberately corrupted routing-resource graphs
// through the RR audit rules and checks each corruption is caught by the
// right rule.
func TestRRGraphAudit(t *testing.T) {
	for _, tc := range rrGraphCorruptions {
		t.Run(tc.name, func(t *testing.T) {
			g := rrAuditGraph(t)
			wantClean(t, RunStage(StageRoute, &Artifacts{Graph: g}))
			tc.corrupt(g)
			rep := RunStage(StageRoute, &Artifacts{Graph: g})
			wantRule(t, rep, tc.rule)
			for _, d := range rep.Diags {
				if d.Rule != tc.rule && d.Severity == Error && tc.rule != "route/rr-dangling" {
					// A single corruption should not cascade into unrelated
					// error rules (dangling edges legitimately confuse
					// downstream audits, so they are exempt).
					t.Errorf("corruption also tripped %s: %s", d.Rule, d.Message)
				}
			}
		})
	}
}
