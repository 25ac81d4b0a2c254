package timing

import (
	"fpgaflow/internal/pack"
	"fpgaflow/internal/place"
	"fpgaflow/internal/route"
)

// Criticality turns timing slack into the [0,1] weight the timing-driven
// placer and router cost functions consume: zero-slack (critical path)
// connections map to 1, fully relaxed connections to 0, linearly in
// between. The mapping is monotone non-increasing in slack, and out-of-
// range inputs clamp, so downstream cost blends never see a weight
// outside [0,1].
func Criticality(slack, dmax float64) float64 {
	if dmax <= 0 {
		return 0
	}
	c := 1 - slack/dmax
	if c < 0 {
		return 0
	}
	if c > 1 {
		return 1
	}
	return c
}

// NetCriticalities derives a per-net criticality vector (parallel to
// p.Nets) from a completed analysis: each net inherits the criticality of
// its driving signal, Criticality(SlackAt(signal), CriticalPath). The
// router recomputes this after every PathFinder iteration so critical
// nets chase fast paths while relaxed nets absorb the congestion.
func NetCriticalities(an *Analysis, p *place.Problem) []float64 {
	out := make([]float64, len(p.Nets))
	for i, n := range p.Nets {
		out[i] = Criticality(an.SlackAt(n.Signal), an.CriticalPath)
	}
	return out
}

// AnalyzeNetCriticalities runs the full timing analysis on a routed
// design and returns its per-net criticality vector. It is the
// per-iteration recompute hook the router's Options.Criticality callback
// wraps; the result is a pure function of the committed routing, so the
// timing-driven router stays bit-identical at every worker count.
func AnalyzeNetCriticalities(pk *pack.Packing, p *place.Problem, pl *place.Placement, r *route.Result) ([]float64, error) {
	an, err := Analyze(pk, p, pl, r)
	if err != nil {
		return nil, err
	}
	return NetCriticalities(an, p), nil
}
