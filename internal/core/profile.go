package core

import (
	"fmt"

	"fpgaflow/internal/route"
)

// Profile is a named QoR objective that configures the whole CAD stack at
// once — the fpgaflow -profile knob. It is the flow's only objective
// setting: each stage asks the profile which mode to run in.
type Profile string

const (
	// ProfileBalanced is the default wirelength-driven flow.
	ProfileBalanced Profile = ""
	// ProfileTiming is timing-driven placement (criticality-weighted
	// bounding boxes) plus delay-driven routing base costs, without the
	// in-router criticality blend — the fpgaflow -timing flow.
	ProfileTiming Profile = "timing"
	// ProfileMinDelay optimizes the critical path: everything ProfileTiming
	// does plus the criticality-aware PathFinder blend that recomputes
	// per-net slack after every rip-up-and-reroute iteration.
	ProfileMinDelay Profile = "min-delay"
	// ProfileMinEnergy optimizes energy per cycle: power-aware packing
	// (registers concentrated so gated clock trees stay dark) and
	// capacitance-weighted routing base costs.
	ProfileMinEnergy Profile = "min-energy"
	// ProfileMinArea optimizes fabric area: binary-search the minimum
	// routable channel width instead of routing at the architecture's
	// fixed width.
	ProfileMinArea Profile = "min-area"
)

// stageModes is what a profile asks of the stages.
type stageModes struct {
	timingPlace bool           // VPR place weights nets by criticality (place.CriticalityWeights)
	routeBase   route.BaseCost // VPR route's base-cost model
	critRoute   bool           // VPR route blends per-net criticality into its costs
	gatedPack   bool           // T-VPack groups gated registers (pack.Params.GroupGated)
	minW        bool           // VPR route searches the minimum routable channel width
}

// profiles maps every profile to its stage modes. The criticality blend
// recomputes per-net slack from the committed routing after every
// PathFinder iteration, a pure function of that routing, so it stays
// bit-identical for every worker count.
var profiles = map[Profile]stageModes{
	ProfileBalanced:  {},
	ProfileTiming:    {timingPlace: true, routeBase: route.BaseDelay},
	ProfileMinDelay:  {timingPlace: true, routeBase: route.BaseDelay, critRoute: true},
	ProfileMinEnergy: {routeBase: route.BaseEnergy, gatedPack: true},
	ProfileMinArea:   {minW: true},
}

// ParseProfile validates a -profile flag value ("balanced" and "" both
// select the default).
func ParseProfile(s string) (Profile, error) {
	if s == "balanced" {
		return ProfileBalanced, nil
	}
	if _, ok := profiles[Profile(s)]; !ok {
		return "", fmt.Errorf("core: unknown profile %q (want balanced, timing, min-delay, min-energy or min-area)", s)
	}
	return Profile(s), nil
}
