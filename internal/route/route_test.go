package route_test

import (
	"errors"
	"testing"

	"fpgaflow/internal/arch"
	"fpgaflow/internal/check"
	"fpgaflow/internal/netlist"
	"fpgaflow/internal/pack"
	"fpgaflow/internal/place"
	"fpgaflow/internal/route"
	"fpgaflow/internal/rrgraph"
)

const testBLIF = `
.model t
.inputs a b c d
.outputs o1 o2
.names a b x1
11 1
.names c d x2
10 1
01 1
.names x1 x2 o1
1- 1
-1 1
.names x1 c o2
11 1
.end
`

// legal runs the route-stage rules, the only legality check of a routing.
func legal(r *route.Result, p *place.Problem, pl *place.Placement) error {
	rep := check.RunStage(check.StageRoute, &check.Artifacts{
		Graph: r.Graph, Routing: r, Problem: p, Placement: pl,
	})
	if rep.RulesRun == 0 {
		return errors.New("no route-stage rule applies")
	}
	return rep.Err()
}

func placed(t *testing.T, w int) (*place.Problem, *place.Placement) {
	t.Helper()
	nl, err := netlist.ParseBLIF(testBLIF)
	if err != nil {
		t.Fatal(err)
	}
	pk, err := pack.Pack(nl, pack.Params{N: 1, K: 4, I: 4})
	if err != nil {
		t.Fatal(err)
	}
	a := arch.Paper()
	a.CLB.N, a.CLB.I = 1, 4
	a.Routing.ChannelWidth = w
	p, err := place.NewProblem(a, pk)
	if err != nil {
		t.Fatal(err)
	}
	p.AutoSize()
	pl, err := place.Place(p, place.Options{Seed: 1, InnerNum: 1})
	if err != nil {
		t.Fatal(err)
	}
	return p, pl
}

func TestRouteSucceeds(t *testing.T) {
	p, pl := placed(t, 8)
	g, err := rrgraph.Build(p.Arch)
	if err != nil {
		t.Fatal(err)
	}
	r, err := route.Route(p, pl, g, route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Success {
		t.Fatalf("routing failed after %d iterations, %d overused", r.Iterations, r.Overused)
	}
	if err := legal(r, p, pl); err != nil {
		t.Fatal(err)
	}
	if r.WirelengthUsed() == 0 {
		t.Error("no wires used")
	}
}

func TestRouteNarrowChannelCongests(t *testing.T) {
	// W=1 with Fc=1 should either fail or take many iterations; the point
	// is that the router terminates and reports honestly.
	p, pl := placed(t, 1)
	g, err := rrgraph.Build(p.Arch)
	if err != nil {
		t.Fatal(err)
	}
	r, err := route.Route(p, pl, g, route.Options{MaxIters: 10})
	if err != nil {
		t.Fatal(err)
	}
	if r.Success {
		if err := legal(r, p, pl); err != nil {
			t.Fatal(err)
		}
	} else if r.Overused == 0 {
		t.Error("failure reported with zero overuse")
	}
}

func TestMinChannelWidth(t *testing.T) {
	p, pl := placed(t, 8)
	w, r, err := route.MinChannelWidth(p, pl, 1, 8, route.Options{MaxIters: 15})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Success {
		t.Fatal("binary search returned failed routing")
	}
	if w < 1 || w > 8 {
		t.Fatalf("W = %d", w)
	}
	// The returned routing must be valid for a graph of width w.
	if r.Graph.W != w {
		t.Errorf("result graph W = %d, want %d", r.Graph.W, w)
	}
	if err := legal(r, p, pl); err != nil {
		t.Fatal(err)
	}
	// One track below the minimum must fail.
	if w > 1 {
		a := p.Arch.Clone()
		a.Routing.ChannelWidth = w - 1
		g, err := rrgraph.Build(a)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := route.Route(p, pl, g, route.Options{MaxIters: 15})
		if err != nil {
			t.Fatal(err)
		}
		if r2.Success {
			t.Errorf("W=%d routed but binary search said min is %d", w-1, w)
		}
	}
}

func TestRouteTreeSharing(t *testing.T) {
	// Multi-sink nets must form a connected tree, not disjoint paths.
	p, pl := placed(t, 8)
	g, err := rrgraph.Build(p.Arch)
	if err != nil {
		t.Fatal(err)
	}
	r, err := route.Route(p, pl, g, route.Options{})
	if err != nil || !r.Success {
		t.Fatalf("route: %v success=%v", err, r != nil && r.Success)
	}
	for ni, nr := range r.Routes {
		if len(nr.Paths) < 2 {
			continue
		}
		// Later paths must start from a node already in the tree of
		// earlier paths.
		seen := map[int]bool{}
		for _, n := range nr.Paths[0] {
			seen[n] = true
		}
		for si := 1; si < len(nr.Paths); si++ {
			if !seen[nr.Paths[si][0]] {
				t.Errorf("net %s path %d starts outside tree", p.Nets[ni].Signal, si)
			}
			for _, n := range nr.Paths[si] {
				seen[n] = true
			}
		}
	}
}

func TestRouteSingleOutputPinPerNet(t *testing.T) {
	p, pl := placed(t, 8)
	g, err := rrgraph.Build(p.Arch)
	if err != nil {
		t.Fatal(err)
	}
	r, err := route.Route(p, pl, g, route.Options{})
	if err != nil || !r.Success {
		t.Fatal("route failed")
	}
	for ni, nr := range r.Routes {
		opins := map[int]bool{}
		for _, path := range nr.Paths {
			for _, n := range path {
				if g.Type[n] == rrgraph.OPin {
					opins[n] = true
				}
			}
		}
		if len(opins) > 1 {
			t.Errorf("net %s uses %d output pins", p.Nets[ni].Signal, len(opins))
		}
	}
}

func TestDelayDrivenRouting(t *testing.T) {
	p, pl := placed(t, 8)
	g, err := rrgraph.Build(p.Arch)
	if err != nil {
		t.Fatal(err)
	}
	r, err := route.Route(p, pl, g, route.Options{Base: route.BaseDelay})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Success {
		t.Fatal("delay-driven routing failed")
	}
	if err := legal(r, p, pl); err != nil {
		t.Fatal(err)
	}
}
