package check

import (
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

// rrGraphCorruptions are the RR-graph audit fixtures; the rule-coverage
// walk (TestEveryRuleHasFiringFixture) reuses them.
var rrGraphCorruptions = []rrGraphCorruption{
	{
		name: "dangling-edge",
		corrupt: func(g *rrgraph.Graph) {
			g.Nodes[0].Edges = append(g.Nodes[0].Edges, len(g.Nodes)+7)
		},
		rule: "route/rr-dangling",
	},
	{
		name: "negative-edge",
		corrupt: func(g *rrgraph.Graph) {
			g.Nodes[0].Edges = append(g.Nodes[0].Edges, -1)
		},
		rule: "route/rr-dangling",
	},
	{
		name: "self-loop",
		corrupt: func(g *rrgraph.Graph) {
			n := g.Nodes[3]
			n.Edges = append(n.Edges, n.ID)
		},
		rule: "route/rr-self-loop",
	},
	{
		name: "zero-capacity",
		corrupt: func(g *rrgraph.Graph) {
			g.Nodes[5].Capacity = 0
		},
		rule: "route/rr-capacity",
	},
	{
		name: "wire-without-span",
		corrupt: func(g *rrgraph.Graph) {
			for _, n := range g.Nodes {
				if n.Type == rrgraph.ChanX {
					n.Span = 0
					return
				}
			}
			panic("no ChanX node")
		},
		rule: "route/rr-capacity",
	},
	{
		name: "track-off-channel",
		corrupt: func(g *rrgraph.Graph) {
			for _, n := range g.Nodes {
				if n.Type == rrgraph.ChanY {
					n.Track = g.W + 3
					return
				}
			}
			panic("no ChanY node")
		},
		rule: "route/rr-capacity",
	},
	{
		name: "isolated-opin",
		corrupt: func(g *rrgraph.Graph) {
			for _, n := range g.Nodes {
				if n.Type == rrgraph.OPin {
					kept := n.Edges[:0]
					for _, e := range n.Edges {
						t := g.Nodes[e].Type
						if t != rrgraph.ChanX && t != rrgraph.ChanY {
							kept = append(kept, e)
						}
					}
					n.Edges = kept
					return
				}
			}
			panic("no OPin node")
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
