package place

import "fpgaflow/internal/pack"

// StaticCriticalities estimates per-net criticality (parallel to p.Nets)
// before any routing exists, from combinational depth through the mapped
// netlist alone: a net whose driver lies on the deepest input-to-output
// path gets criticality 1, off-path drivers proportionally less. It weights
// the annealer (CriticalityWeights) and seeds the timing-driven router's
// first iteration, which has no routed delays to analyze yet.
func StaticCriticalities(pk *pack.Packing, p *Problem) []float64 {
	nl := pk.Netlist
	depth, height := nl.Levels()
	dmax := 0
	for id := range depth {
		dmax = max(dmax, depth[id]+height[id])
	}
	out := make([]float64, len(p.Nets))
	if dmax == 0 {
		return out
	}
	for i, net := range p.Nets {
		if n := nl.Node(net.Signal); n != nil {
			out[i] = float64(depth[n.ID()]+height[n.ID()]) / float64(dmax)
		}
	}
	return out
}

// CriticalityWeights computes a per-net weight for timing-driven placement:
// nets whose driving signal lies on long combinational paths of the mapped
// netlist get weights up to 1+alpha, pulling their terminals together during
// annealing (the classic VPR criticality-weighted bounding-box cost). The
// fourth power sharpens the criticality like VPR's criticality exponent, so
// only the truly critical nets dominate the cost.
func CriticalityWeights(pk *pack.Packing, p *Problem, alpha float64) []float64 {
	weights := StaticCriticalities(pk, p)
	for i, c := range weights {
		weights[i] = 1 + alpha*c*c*c*c
	}
	return weights
}
