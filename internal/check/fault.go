package check

import (
	"fmt"

	"fpgaflow/internal/place"
)

// Defect-aware rules: when a run carries a fault.DefectMap (or a routing
// carries its fault.Overlay), verify that no configured resource lands on
// a defect. These are the flow's guarantee that "defect-aware" is not just a
// cost tweak: a placement on a bad site, a route through a dead wire or a
// truth table fighting a stuck configuration bit all fail the stage.

func hasDefects(a *Artifacts) bool { return a.Defects != nil && a.Defects.Count() > 0 }

func init() {
	register(Rule{
		ID:       "place/defective-site",
		Stage:    StagePlace,
		Severity: Error,
		Doc:      "a block is placed on a site the defect map marks defective",
		Applies:  func(a *Artifacts) bool { return hasPlacement(a) && hasDefects(a) },
		Run:      runDefectiveSite,
	})
	register(Rule{
		ID:       "route/dead-resource",
		Stage:    StageRoute,
		Severity: Error,
		Doc:      "a net's route tree uses an RR node or a switch the defect map masks dead",
		Applies:  func(a *Artifacts) bool { return hasRouting(a) && a.Routing.Defects != nil },
		Run:      runDeadResource,
	})
	register(Rule{
		ID:       "bitstream/stuck-bit",
		Stage:    StageBitstream,
		Severity: Error,
		Doc:      "a used BLE's truth table disagrees with a stuck LUT configuration bit at its site",
		Applies: func(a *Artifacts) bool {
			return hasDefects(a) && len(a.Defects.StuckBits) > 0 &&
				a.Bitstream != nil && a.Problem != nil && a.Placement != nil
		},
		Run: runStuckBit,
	})
}

func runDefectiveSite(a *Artifacts, rep *reporter) {
	bad := a.Defects.BadSiteSet()
	if bad == nil {
		return
	}
	p, pl := a.Problem, a.Placement
	for _, b := range p.Blocks {
		l := pl.Loc[b.ID]
		if bad[[2]int{l.X, l.Y}] {
			rep.add(b.Name, "%s placed on defective site (%d,%d)", b.Kind, l.X, l.Y)
		}
	}
}

func runDeadResource(a *Artifacts, rep *reporter) {
	r, p := a.Routing, a.Problem
	g, ov := r.Graph, r.Defects
	valid := func(id int) bool { return id >= 0 && id < g.NumNodes() }
	for ni, nr := range r.Routes {
		if nr == nil {
			continue
		}
		signal := fmt.Sprintf("net#%d", ni)
		if ni < len(p.Nets) {
			signal = p.Nets[ni].Signal
		}
		for _, id := range nr.NodeList() {
			if valid(id) && ov.Dead(id) {
				rep.add(signal, "route uses dead resource %s", rrNodeName(g.Node(id)))
			}
		}
		for _, path := range nr.Paths {
			for i := 0; i+1 < len(path); i++ {
				if !valid(path[i]) || !valid(path[i+1]) {
					continue
				}
				if k, ok := g.EdgeIndex(path[i], path[i+1]); ok && ov.Cut(k) {
					rep.add(signal, "route uses dead switch %s", edgeName(g, [2]int{path[i], path[i+1]}))
				}
			}
		}
	}
}

// runStuckBit compares every used BLE's configured truth table against the
// stuck bits recorded for its site. Only BLEs actually occupied by the
// placed cluster are checked: an empty BLE's configuration is never read
// by the design, so a stuck bit there is harmless.
func runStuckBit(a *Artifacts, rep *reporter) {
	if !placementFits(a, rep) {
		return
	}
	p, pl, bs := a.Problem, a.Placement, a.Bitstream
	for _, b := range p.Blocks {
		if b.Kind != place.BlockCLB || b.Cluster == nil {
			continue
		}
		l := pl.Loc[b.ID]
		cfg, err := bs.CLBAt(l.X, l.Y)
		if err != nil {
			continue // out-of-grid placement is place/out-of-grid's finding
		}
		for _, sb := range a.Defects.StuckBitsAt(l.X, l.Y) {
			if sb.BLE >= len(b.Cluster.BLEs) || sb.BLE >= len(cfg.BLEs) {
				continue // defect in an unoccupied BLE
			}
			lut := cfg.BLEs[sb.BLE].LUT
			if sb.Bit >= len(lut) {
				continue
			}
			if lut[sb.Bit] != sb.Value {
				rep.add(b.Name, "BLE %d LUT bit %d needs %v but is stuck at %v on site (%d,%d)",
					sb.BLE, sb.Bit, lut[sb.Bit], sb.Value, l.X, l.Y)
			}
		}
	}
}
