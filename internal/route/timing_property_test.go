package route_test

// Property tests for the timing- and energy-driven router modes. The
// criticality callback is exercised exactly the way the flow wires it:
// static depth estimate before the first iteration, full slack-derived
// recompute on the committed routing after every iteration. Each random
// instance is audited with the route-stage check rules (no overused or
// illegal resource may survive a successful route) and the worker-count
// invariance contract is asserted under both modes.

import (
	"encoding/json"
	"fmt"
	"testing"

	"fpgaflow/internal/check"
	"fpgaflow/internal/place"
	"fpgaflow/internal/route"
	"fpgaflow/internal/rrgraph"
	"fpgaflow/internal/timing"
)

func TestPropertyTimingDrivenRouteLegalAndDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			pk, p, pl := packPlaceRandom(t, seed)
			calls := 0
			crit := func(g *rrgraph.Graph, routes []*route.NetRoute) []float64 {
				calls++
				var nc []float64
				if routes == nil {
					nc = place.StaticCriticalities(pk, p)
				} else {
					var err error
					nc, err = timing.AnalyzeNetCriticalities(pk, p, pl, &route.Result{Routes: routes, Graph: g})
					if err != nil {
						t.Errorf("seed %d: criticality recompute: %v", seed, err)
						return nil
					}
				}
				for i, c := range nc {
					if c < 0 || c > 1 {
						t.Errorf("seed %d: callback criticality[%d] = %v out of [0,1]", seed, i, c)
					}
				}
				return nc
			}
			g, err := rrgraph.Build(p.Arch)
			if err != nil {
				t.Fatal(err)
			}
			r, err := route.Route(p, pl, g, route.Options{Workers: 4, Criticality: crit})
			if err != nil {
				t.Fatal(err)
			}
			if !r.Success {
				t.Fatalf("seed %d: timing-driven route failed: %d iterations, %d overused", seed, r.Iterations, r.Overused)
			}
			if r.Overused != 0 {
				t.Fatalf("seed %d: successful routing reports %d overused nodes", seed, r.Overused)
			}
			if calls < 2 {
				t.Errorf("seed %d: criticality callback ran %d times; want static seed + per-iteration recompute", seed, calls)
			}
			// The route-stage rules audit capacity, connectivity and
			// RR-graph legality on the final routing.
			rep := check.RunStage(check.StageRoute, &check.Artifacts{
				Graph: g, Routing: r, Problem: p, Placement: pl,
			})
			if rep.RulesRun == 0 {
				t.Fatal("no route-stage rules ran")
			}
			for _, d := range rep.Diags {
				if d.Severity == check.Error {
					t.Errorf("seed %d: check %s: %s", seed, d.Rule, d.Message)
				}
			}
			// Bit-identical across worker counts under the timing-driven
			// cost blend.
			g1, err := rrgraph.Build(p.Arch)
			if err != nil {
				t.Fatal(err)
			}
			r1, err := route.Route(p, pl, g1, route.Options{Workers: 1, Criticality: crit})
			if err != nil {
				t.Fatal(err)
			}
			j1, _ := json.Marshal(r1.Routes)
			jN, _ := json.Marshal(r.Routes)
			if string(j1) != string(jN) {
				t.Errorf("seed %d: timing-driven route trees differ between -j 1 and -j 4", seed)
			}
		})
	}
}

func TestPropertyEnergyDrivenRouteLegalAndDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			p, pl := placeRandom(t, seed)
			g, err := rrgraph.Build(p.Arch)
			if err != nil {
				t.Fatal(err)
			}
			r, err := route.Route(p, pl, g, route.Options{Workers: 4, Base: route.BaseEnergy})
			if err != nil {
				t.Fatal(err)
			}
			if !r.Success {
				t.Fatalf("seed %d: energy-driven route failed: %d iterations, %d overused", seed, r.Iterations, r.Overused)
			}
			rep := check.RunStage(check.StageRoute, &check.Artifacts{
				Graph: g, Routing: r, Problem: p, Placement: pl,
			})
			for _, d := range rep.Diags {
				if d.Severity == check.Error {
					t.Errorf("seed %d: check %s: %s", seed, d.Rule, d.Message)
				}
			}
			g1, err := rrgraph.Build(p.Arch)
			if err != nil {
				t.Fatal(err)
			}
			r1, err := route.Route(p, pl, g1, route.Options{Workers: 1, Base: route.BaseEnergy})
			if err != nil {
				t.Fatal(err)
			}
			j1, _ := json.Marshal(r1.Routes)
			jN, _ := json.Marshal(r.Routes)
			if string(j1) != string(jN) {
				t.Errorf("seed %d: energy-driven route trees differ between -j 1 and -j 4", seed)
			}
		})
	}
}
